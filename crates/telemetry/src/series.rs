//! Binned time series: the reader fixes a bin width before the run, and
//! each sample is added to its bin as it is recorded, so a series costs
//! one [`Bin`] per width of run, not one entry per sample.

/// One bin: the values recorded into it, summed in record order, and how
/// many there were.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Bin {
    /// Sum of the recorded values, accumulated in record order.
    pub sum: f64,
    /// Number of values recorded.
    pub count: u64,
}

/// A series of fixed-width bins; bin `i` covers `[i·width, (i+1)·width)`
/// microseconds.
///
/// A series nobody declared has width 0 and discards every sample: no
/// reader will ask for it.
#[derive(Debug, Default)]
pub struct BinnedSeries {
    width_us: u64,
    /// Grown on demand; a bin past the last sample is simply absent.
    bins: Vec<Bin>,
    /// Index and start time of the bin the last sample went to.
    open: usize,
    open_start_us: u64,
}

impl BinnedSeries {
    /// Fix the bin width. Declaring again at the same width is a no-op.
    pub(crate) fn declare(&mut self, width_us: u64) {
        assert!(width_us > 0, "a series needs a non-zero bin width");
        if self.width_us == 0 {
            self.width_us = width_us;
            // Bin 0 is open from the start, so the first sample takes the
            // fast path of `record` like every other.
            self.bins.push(Bin::default());
        }
        assert_eq!(
            self.width_us, width_us,
            "series binned at {} µs declared again at {} µs",
            self.width_us, width_us
        );
    }

    /// Add `v` to bin `t_us / width`.
    #[inline]
    pub(crate) fn record(&mut self, t_us: u64, v: f64) {
        // Simulated time only moves forward, so nearly every sample lands in
        // the bin the previous one did: one subtraction, no division. An
        // undeclared series (width 0) always misses and returns below.
        if t_us.wrapping_sub(self.open_start_us) >= self.width_us {
            if self.width_us == 0 {
                return;
            }
            self.open = (t_us / self.width_us) as usize;
            self.open_start_us = self.open as u64 * self.width_us;
            if self.open >= self.bins.len() {
                self.bins.resize(self.open + 1, Bin::default());
            }
        }
        let bin = &mut self.bins[self.open];
        bin.sum += v;
        bin.count += 1;
    }

    /// Add `other`'s bins to this series' bins element-wise. Panics if both
    /// are declared at different widths.
    pub(crate) fn merge(&mut self, other: &BinnedSeries) {
        if other.width_us == 0 {
            return;
        }
        self.declare(other.width_us);
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), Bin::default());
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.sum += theirs.sum;
            mine.count += theirs.count;
        }
    }

    /// Bin width in microseconds (0: never declared).
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    /// The bins from time 0; those past the last sample's are absent.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }
}
