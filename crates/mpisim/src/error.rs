//! Typed failure surface of the runtime.
//!
//! A distributed job fails as a *job*, not as a single thread: when one rank
//! dies, every peer that is parked in a blocking primitive (a receive, a
//! barrier, a split or window exposure) would otherwise wait forever for a
//! message that can no longer arrive. The runtime therefore **poisons** the
//! job on the first rank failure (see [`crate::scheduler`]): every parked
//! rank wakes and unwinds with a [`CommError::PeerFailed`] naming the victim,
//! and [`Universe::try_run`](crate::Universe::try_run) collects one
//! [`RankOutcome`] per rank instead of hanging.
//!
//! The same machinery backs the watchdog: when `SA_WATCHDOG_SECS` arms a
//! deadline, a rank that stays parked past it fails with
//! [`CommError::Timeout`] (after dumping a who-waits-on-whom diagnostic) and
//! poisons the job so its peers terminate too.

use std::time::Duration;

/// The blocking primitive a failure was observed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primitive {
    /// A two-sided receive ([`Comm::recv_vec`](crate::Comm::recv_vec) or a
    /// provided collective built on it).
    Recv,
    /// [`Comm::barrier`](crate::Comm::barrier).
    Barrier,
    /// The control allgather behind communicator splits
    /// ([`Comm::split`](crate::Comm::split)) and window exposure
    /// ([`PairedWindow::create`](crate::PairedWindow::create)).
    Exchange,
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Primitive::Recv => "recv",
            Primitive::Barrier => "barrier",
            Primitive::Exchange => "exchange",
        })
    }
}

/// Why a blocking communication call could not complete.
///
/// Blocking primitives raise these by unwinding the rank thread with the
/// error as the panic payload (`std::panic::panic_any`) — algorithm code
/// written against [`Comm`](crate::Comm) stays `Result`-free, and
/// [`Universe::try_run`](crate::Universe::try_run) turns the payload back
/// into a typed [`RankOutcome`] at the join point.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// A peer rank died (panic or injected abort) while this rank was in —
    /// or about to enter — `primitive`. `rank` is the *first* failed rank of
    /// the job (the poison is first-writer-wins, so cascading secondary
    /// failures all name the original victim).
    ///
    /// On the `procs` backend this is also how every *transport-level*
    /// detection surfaces: a socket EOF (peer process exited), an abort
    /// broadcast, a CRC-corrupt frame on any link and missed heartbeats
    /// past `SA_HEARTBEAT_SECS` all poison the job naming the peer — the
    /// failure is always typed, never a silent wrong answer.
    PeerFailed { rank: usize, primitive: Primitive },
    /// The watchdog deadline expired while this rank was parked in
    /// `primitive` for `waited`.
    Timeout {
        primitive: Primitive,
        waited: Duration,
    },
    /// The job was already poisoned by this very rank (it was named the
    /// victim and yet issued another communication call — possible when user
    /// code catches the original unwind). No progress is possible.
    Poisoned,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerFailed { rank, primitive } => {
                write!(
                    f,
                    "peer rank {rank} failed while this rank was in {primitive}"
                )
            }
            CommError::Timeout { primitive, waited } => write!(
                f,
                "watchdog: blocked in {primitive} for {:.3}s past the deadline",
                waited.as_secs_f64()
            ),
            CommError::Poisoned => write!(f, "job already poisoned by this rank"),
        }
    }
}

impl std::error::Error for CommError {}

/// Raise a [`CommError`] out of a blocking primitive by unwinding the rank
/// thread with the typed error as the panic payload.
pub(crate) fn raise(err: CommError) -> ! {
    std::panic::panic_any(err)
}

/// Why one rank of a [`Universe`](crate::Universe) job failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RankError {
    /// The rank unwound out of a blocking primitive with a typed
    /// communication failure.
    Comm(CommError),
    /// The rank panicked in user or library code; `summary` is the payload
    /// rendered to text (`String`/`&str` payloads verbatim, anything else a
    /// placeholder).
    Panic { summary: String },
}

impl RankError {
    /// Classify a joined thread's panic payload. The panicking launchers
    /// (`Universe::run` and friends) re-raise the classified error: a
    /// [`CommError`] as itself, a panic as its `summary`.
    pub(crate) fn from_payload(payload: &(dyn std::any::Any + Send)) -> RankError {
        if let Some(err) = payload.downcast_ref::<CommError>() {
            return RankError::Comm(err.clone());
        }
        let summary = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        RankError::Panic { summary }
    }

    /// The typed communication error, if that is what felled this rank.
    pub fn as_comm(&self) -> Option<&CommError> {
        match self {
            RankError::Comm(e) => Some(e),
            RankError::Panic { .. } => None,
        }
    }
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Comm(e) => write!(f, "{e}"),
            RankError::Panic { summary } => write!(f, "panicked: {summary}"),
        }
    }
}

impl std::error::Error for RankError {}

/// What one rank of a job produced: its closure's return value, or the
/// typed reason it failed. See
/// [`Universe::try_run`](crate::Universe::try_run).
pub type RankOutcome<R> = Result<R, RankError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_classification() {
        let comm: Box<dyn std::any::Any + Send> = Box::new(CommError::Poisoned);
        assert_eq!(
            RankError::from_payload(comm.as_ref()),
            RankError::Comm(CommError::Poisoned)
        );
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(
            RankError::from_payload(s.as_ref()),
            RankError::Panic {
                summary: "boom".into()
            }
        );
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("ouch"));
        assert!(matches!(
            RankError::from_payload(owned.as_ref()),
            RankError::Panic { summary } if summary == "ouch"
        ));
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(matches!(
            RankError::from_payload(opaque.as_ref()),
            RankError::Panic { .. }
        ));
    }

    #[test]
    fn errors_render_usefully() {
        let e = CommError::PeerFailed {
            rank: 3,
            primitive: Primitive::Barrier,
        };
        assert_eq!(
            e.to_string(),
            "peer rank 3 failed while this rank was in barrier"
        );
        let t = CommError::Timeout {
            primitive: Primitive::Recv,
            waited: Duration::from_millis(1500),
        };
        assert!(t.to_string().contains("recv"), "{t}");
        assert!(t.to_string().contains("1.500"), "{t}");
        assert!(RankError::Comm(CommError::Poisoned).as_comm().is_some());
    }
}
