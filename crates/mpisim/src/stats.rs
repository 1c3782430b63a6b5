//! Exact communication accounting.

use std::cell::Cell;
use std::ops::{Add, Sub};

/// A snapshot of one rank's cumulative communication counters.
///
/// `sent_*` counts two-sided sends (collectives decompose into these),
/// `rdma_*` counts one-sided [`crate::PairedWindow`] get traffic — the
/// paper reports the two classes separately (Fig. 5 vs Fig. 6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    pub sent_msgs: u64,
    pub sent_bytes: u64,
    pub recv_msgs: u64,
    pub recv_bytes: u64,
    pub rdma_gets: u64,
    pub rdma_get_bytes: u64,
}

impl CommStats {
    /// Total bytes this rank moved onto the network (sends + gets; receives
    /// are the mirror image of some other rank's sends).
    pub fn injected_bytes(&self) -> u64 {
        self.sent_bytes + self.rdma_get_bytes
    }

    /// Total network transactions initiated by this rank.
    pub fn injected_msgs(&self) -> u64 {
        self.sent_msgs + self.rdma_gets
    }
}

impl Sub for CommStats {
    type Output = CommStats;
    fn sub(self, o: CommStats) -> CommStats {
        CommStats {
            sent_msgs: self.sent_msgs - o.sent_msgs,
            sent_bytes: self.sent_bytes - o.sent_bytes,
            recv_msgs: self.recv_msgs - o.recv_msgs,
            recv_bytes: self.recv_bytes - o.recv_bytes,
            rdma_gets: self.rdma_gets - o.rdma_gets,
            rdma_get_bytes: self.rdma_get_bytes - o.rdma_get_bytes,
        }
    }
}

impl Add for CommStats {
    type Output = CommStats;
    fn add(self, o: CommStats) -> CommStats {
        CommStats {
            sent_msgs: self.sent_msgs + o.sent_msgs,
            sent_bytes: self.sent_bytes + o.sent_bytes,
            recv_msgs: self.recv_msgs + o.recv_msgs,
            recv_bytes: self.recv_bytes + o.recv_bytes,
            rdma_gets: self.rdma_gets + o.rdma_gets,
            rdma_get_bytes: self.rdma_get_bytes + o.rdma_get_bytes,
        }
    }
}

/// Interior-mutable counters owned by a [`crate::Comm`] (each rank's handle
/// lives on exactly one thread, so `Cell` suffices).
#[derive(Default)]
pub(crate) struct StatsCell {
    sent_msgs: Cell<u64>,
    sent_bytes: Cell<u64>,
    recv_msgs: Cell<u64>,
    recv_bytes: Cell<u64>,
    rdma_gets: Cell<u64>,
    rdma_get_bytes: Cell<u64>,
}

impl StatsCell {
    pub fn record_send(&self, bytes: usize) {
        self.sent_msgs.set(self.sent_msgs.get() + 1);
        self.sent_bytes.set(self.sent_bytes.get() + bytes as u64);
    }

    pub fn record_recv(&self, bytes: usize) {
        self.recv_msgs.set(self.recv_msgs.get() + 1);
        self.recv_bytes.set(self.recv_bytes.get() + bytes as u64);
    }

    pub fn record_get(&self, bytes: usize) {
        self.rdma_gets.set(self.rdma_gets.get() + 1);
        self.rdma_get_bytes
            .set(self.rdma_get_bytes.get() + bytes as u64);
    }

    pub fn snapshot(&self) -> CommStats {
        CommStats {
            sent_msgs: self.sent_msgs.get(),
            sent_bytes: self.sent_bytes.get(),
            recv_msgs: self.recv_msgs.get(),
            recv_bytes: self.recv_bytes.get(),
            rdma_gets: self.rdma_gets.get(),
            rdma_get_bytes: self.rdma_get_bytes.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = StatsCell::default();
        s.record_send(100);
        s.record_send(50);
        s.record_get(8);
        let snap = s.snapshot();
        assert_eq!(snap.sent_msgs, 2);
        assert_eq!(snap.sent_bytes, 150);
        assert_eq!(snap.rdma_gets, 1);
        assert_eq!(snap.injected_bytes(), 158);
        assert_eq!(snap.injected_msgs(), 3);
    }

    #[test]
    fn diff_arithmetic() {
        let s = StatsCell::default();
        s.record_send(10);
        let before = s.snapshot();
        s.record_send(30);
        s.record_recv(5);
        let delta = s.snapshot() - before;
        assert_eq!(delta.sent_msgs, 1);
        assert_eq!(delta.sent_bytes, 30);
        assert_eq!(delta.recv_bytes, 5);
        let sum = delta + delta;
        assert_eq!(sum.sent_bytes, 60);
    }
}
