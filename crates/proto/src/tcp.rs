//! Real-TCP lingua franca transport.
//!
//! The paper's reference implementation was C over "the most vanilla"
//! TCP/IP sockets: blocking calls, `select()`-style timed receive, no
//! keep-alives, no signals, no threads *inside the services* (§2.1, §5.1).
//! This module is the Rust equivalent for running EveryWare components as
//! real processes: a [`TcpNode`] owns one listening socket; background
//! reader threads (the moral successor of the paper's forked watchdogs,
//! confined below the API exactly as the paper confined platform detail)
//! frame incoming bytes into [`Packet`]s and deliver them to a single
//! channel the service loop drains with a timed receive.
//!
//! Responses travel back over the connection the request arrived on, so a
//! component behind a NAT-ish path (the 1998 campus-browser case) can still
//! be answered.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::packet::{FrameReader, Packet};

/// A packet received from the network, with a handle for replying over the
/// originating connection.
pub struct Incoming {
    /// Remote address of the connection the packet arrived on.
    pub peer: SocketAddr,
    /// The packet itself.
    pub packet: Packet,
    reply_stream: TcpStream,
}

impl Incoming {
    /// Send `pkt` back over the connection this packet arrived on.
    pub fn reply(&mut self, pkt: &Packet) -> io::Result<()> {
        self.reply_stream.write_all(&pkt.to_stream_bytes())
    }
}

/// One endpoint of the lingua franca: a listener plus cached outgoing
/// connections, delivering all received packets through one queue.
pub struct TcpNode {
    local: SocketAddr,
    incoming: Receiver<Incoming>,
    tx: Sender<Incoming>,
    outgoing: HashMap<SocketAddr, TcpStream>,
    stop: Arc<AtomicBool>,
}

fn spawn_reader(stream: TcpStream, tx: Sender<Incoming>, stop: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let peer = match stream.peer_addr() {
            Ok(a) => a,
            Err(_) => return,
        };
        let mut reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        // A read timeout lets the thread notice shutdown.
        let _ = reader.set_read_timeout(Some(Duration::from_millis(200)));
        let mut framer = FrameReader::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            match reader.read(&mut buf) {
                Ok(0) => return, // EOF
                Ok(n) => {
                    framer.feed(&buf[..n]);
                    loop {
                        match framer.next_packet() {
                            Ok(Some(packet)) => {
                                let reply_stream = match stream.try_clone() {
                                    Ok(s) => s,
                                    Err(_) => return,
                                };
                                if tx
                                    .send(Incoming {
                                        peer,
                                        packet,
                                        reply_stream,
                                    })
                                    .is_err()
                                {
                                    return; // node dropped
                                }
                            }
                            Ok(None) => break,
                            // Corrupt stream: drop the connection, as the
                            // paper's components did — the peer will time
                            // out and retry.
                            Err(_) => return,
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    });
}

impl TcpNode {
    /// Bind a listening socket (use port 0 for an ephemeral port) and start
    /// accepting.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpNode> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match conn {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            spawn_reader(stream, tx.clone(), Arc::clone(&stop));
                        }
                        Err(_) => continue,
                    }
                }
            });
        }
        Ok(TcpNode {
            local,
            incoming: rx,
            tx,
            outgoing: HashMap::new(),
            stop,
        })
    }

    /// The bound local address (the component's contact address, as
    /// registered with Gossips and schedulers).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Send a packet to `to`, reusing a cached connection when one exists.
    /// A fresh connection also gets a reader thread, so responses sent back
    /// over it are delivered through [`TcpNode::recv_timeout`].
    pub fn send(&mut self, to: SocketAddr, pkt: &Packet) -> io::Result<()> {
        if !self.outgoing.contains_key(&to) {
            let stream = TcpStream::connect_timeout(&to, Duration::from_secs(5))?;
            let _ = stream.set_nodelay(true);
            spawn_reader(stream.try_clone()?, self.tx.clone(), Arc::clone(&self.stop));
            self.outgoing.insert(to, stream);
        }
        let stream = self.outgoing.get_mut(&to).expect("just inserted");
        match stream.write_all(&pkt.to_stream_bytes()) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Connection went stale (peer restarted): drop it so the
                // next send reconnects; report this failure to the caller,
                // whose time-out machinery owns the retry decision.
                self.outgoing.remove(&to);
                Err(e)
            }
        }
    }

    /// Timed receive — the `select()`-with-timeout of §5.1. Returns `None`
    /// on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Incoming> {
        self.incoming.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming> {
        self.incoming.try_recv().ok()
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::mtype;

    fn node() -> TcpNode {
        TcpNode::bind("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn one_way_delivery() {
        let server = node();
        let mut client = node();
        let pkt = Packet::oneway(mtype::APP_BASE, b"hello".to_vec());
        client.send(server.local_addr(), &pkt).unwrap();
        let got = server
            .recv_timeout(Duration::from_secs(5))
            .expect("delivered");
        assert_eq!(got.packet, pkt);
    }

    #[test]
    fn request_response_over_same_connection() {
        let server = node();
        let mut client = node();
        let req = Packet::request(mtype::APP_BASE + 2, 42, b"work?".to_vec());
        client.send(server.local_addr(), &req).unwrap();
        let mut inc = server
            .recv_timeout(Duration::from_secs(5))
            .expect("request");
        assert!(inc.packet.is_request());
        inc.reply(&Packet::response_to(&inc.packet, b"unit-9".to_vec()))
            .unwrap();
        let resp = client
            .recv_timeout(Duration::from_secs(5))
            .expect("response");
        assert!(resp.packet.is_response());
        assert_eq!(resp.packet.corr_id, 42);
        assert_eq!(resp.packet.payload, b"unit-9");
    }

    #[test]
    fn recv_timeout_expires() {
        let server = node();
        let before = std::time::Instant::now();
        assert!(server.recv_timeout(Duration::from_millis(50)).is_none());
        assert!(before.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn many_packets_one_connection_keep_order() {
        let server = node();
        let mut client = node();
        for i in 0..100u16 {
            let pkt = Packet::oneway(mtype::APP_BASE + i, vec![i as u8; i as usize]);
            client.send(server.local_addr(), &pkt).unwrap();
        }
        for i in 0..100u16 {
            let got = server.recv_timeout(Duration::from_secs(5)).expect("packet");
            assert_eq!(got.packet.mtype, mtype::APP_BASE + i);
            assert_eq!(got.packet.payload.len(), i as usize);
        }
    }

    #[test]
    fn large_payload_crosses_intact() {
        let server = node();
        let mut client = node();
        let payload = ew_sim::Payload::from(
            (0..200_000u32)
                .map(|i| (i.wrapping_mul(2654435761)) as u8)
                .collect::<Vec<u8>>(),
        );
        // O(1) clone: the packet shares the comparison copy's buffer.
        let pkt = Packet::oneway(mtype::APP_BASE, payload.clone());
        client.send(server.local_addr(), &pkt).unwrap();
        let got = server
            .recv_timeout(Duration::from_secs(10))
            .expect("delivered");
        assert_eq!(got.packet.payload, payload);
    }

    #[test]
    fn send_to_dead_peer_errors() {
        let mut client = node();
        // Grab an address, then close the listener by dropping the node.
        let dead_addr = {
            let dead = node();
            dead.local_addr()
        };
        std::thread::sleep(Duration::from_millis(300));
        let pkt = Packet::oneway(1, vec![]);
        // Either the connect fails immediately or the first write surfaces
        // the reset; both manifest as Err within a send or two.
        let r1 = client.send(dead_addr, &pkt);
        let r2 = client.send(dead_addr, &pkt);
        let r3 = client.send(dead_addr, &pkt);
        assert!(
            r1.is_err() || r2.is_err() || r3.is_err(),
            "sending to a closed listener should eventually error"
        );
    }

    #[test]
    fn bidirectional_traffic_between_two_nodes() {
        let mut a = node();
        let mut b = node();
        a.send(b.local_addr(), &Packet::oneway(1, b"from-a".to_vec()))
            .unwrap();
        b.send(a.local_addr(), &Packet::oneway(2, b"from-b".to_vec()))
            .unwrap();
        let at_b = b.recv_timeout(Duration::from_secs(5)).unwrap();
        let at_a = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(at_b.packet.payload, b"from-a");
        assert_eq!(at_a.packet.payload, b"from-b");
    }
}
