//! Point-to-point transport: per-rank mailboxes keyed by `(source, tag)`.
//!
//! Sends never block (unbounded queues), receives block until a matching
//! message arrives — MPI's eager-protocol semantics, which is what the
//! linear collective algorithms built on top assume for deadlock freedom.

use crate::error::raise;
use crate::scheduler::{Scheduler, WaitSite};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// A type-erased message: the boxed `Vec<T>` a `send_vec` moved (the
/// receiver downcasts it and meters from it), or a control round's value.
/// The in-process mailbox is the one place a payload's type is erased.
pub(crate) type Envelope = Box<dyn Any + Send>;

#[derive(Default)]
struct MailboxInner {
    queues: HashMap<(usize, u64), VecDeque<Envelope>>,
}

#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    cv: Condvar,
}

/// The transport fabric of one communicator: `n` mailboxes.
pub(crate) struct Hub {
    boxes: Vec<Mailbox>,
}

impl Hub {
    pub fn new(n: usize) -> Hub {
        Hub {
            boxes: (0..n).map(|_| Mailbox::default()).collect(),
        }
    }

    /// Deposit a message for `dst`.
    pub fn send(&self, src: usize, dst: usize, tag: u64, env: Envelope) {
        let mbox = &self.boxes[dst];
        {
            let mut inner = mbox.inner.lock();
            inner.queues.entry((src, tag)).or_default().push_back(env);
        }
        mbox.cv.notify_all();
    }

    /// Block until a message from `(src, tag)` is available for `me`.
    ///
    /// Waiting goes through [`Scheduler::park_until`]: the run permit is
    /// handed back to `sched` so that in a serial universe the sender can
    /// execute, and reacquired (with no locks held, so a permit-holding
    /// sender can't deadlock against this mailbox's mutex) before the
    /// message is popped. Only rank `me`'s own thread receives from its
    /// mailbox, so a message observed before the reacquisition is still
    /// there after it. Unwinds with a typed [`CommError`](crate::CommError)
    /// if a peer dies or the watchdog expires while waiting — attributed to
    /// the primitive the tag's class names (a control-tagged receive is a
    /// barrier, split or exposure).
    pub fn recv(&self, me: usize, src: usize, tag: u64, sched: &Scheduler) -> Envelope {
        let mbox = &self.boxes[me];
        let site = WaitSite::recv(src, tag);
        loop {
            {
                let mut inner = mbox.inner.lock();
                if let Some(q) = inner.queues.get_mut(&(src, tag)) {
                    if let Some(env) = q.pop_front() {
                        if q.is_empty() {
                            inner.queues.remove(&(src, tag));
                        }
                        return env;
                    }
                }
            }
            if let Err(e) = sched.park_until(&mbox.inner, &mbox.cv, site, |inner| {
                inner
                    .queues
                    .get(&(src, tag))
                    .map(|q| !q.is_empty())
                    .unwrap_or(false)
            }) {
                raise(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sched() -> Arc<Scheduler> {
        Scheduler::parallel(2, None)
    }

    #[test]
    fn send_then_recv_same_thread() {
        let hub = Hub::new(2);
        hub.send(0, 1, 7, Box::new(vec![1u64, 2, 3]));
        let got = hub.recv(1, 0, 7, &sched());
        let v = got.downcast::<Vec<u64>>().unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
    }

    #[test]
    fn tags_do_not_cross() {
        let hub = Hub::new(2);
        hub.send(0, 1, 1, Box::new(10i32));
        hub.send(0, 1, 2, Box::new(20i32));
        let b = hub.recv(1, 0, 2, &sched());
        assert_eq!(*b.downcast::<i32>().unwrap(), 20);
        let a = hub.recv(1, 0, 1, &sched());
        assert_eq!(*a.downcast::<i32>().unwrap(), 10);
    }

    #[test]
    fn fifo_within_tag() {
        let hub = Hub::new(1);
        hub.send(0, 0, 0, Box::new(1i32));
        hub.send(0, 0, 0, Box::new(2i32));
        assert_eq!(*hub.recv(0, 0, 0, &sched()).downcast::<i32>().unwrap(), 1);
        assert_eq!(*hub.recv(0, 0, 0, &sched()).downcast::<i32>().unwrap(), 2);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let hub = Arc::new(Hub::new(2));
        let h2 = hub.clone();
        let t = std::thread::spawn(move || {
            let e = h2.recv(1, 0, 5, &sched());
            *e.downcast::<&'static str>().unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        hub.send(0, 1, 5, Box::new("hello"));
        assert_eq!(t.join().unwrap(), "hello");
    }
}
