//! The daemon client: dials a [`DaemonServer`](crate::DaemonServer),
//! binds dining processes, and drives hungry → granted → released cycles
//! over the EKN1 wire protocol.
//!
//! There is one client, [`MuxClient`]: one socket fronting any number of
//! processes. Every process is admitted the one way the server knows — a
//! `Bind` — the first one when the client connects, the rest with
//! [`MuxClient::bind`]; `Unbind` releases one (the gateway/proxy shape).
//! Event frames are process-tagged, so the caller demuxes with
//! [`MuxClient::next_event`].
//!
//! The client owns the retry policy: connection attempts and busy
//! refusals back off exponentially with seeded jitter (deterministic per
//! client, decorrelated across a fleet). A busy refusal carries the
//! server's retry hint; the retry loop honors `max(hint, backoff)`
//! exactly once per attempt, and never sleeps after the final attempt —
//! a failed call returns at once, with the hint in the error for the
//! caller's own scheduling.
//!
//! The client sits on a private `Link`: the socket, the [`FrameReader`],
//! one request buffer and the events read while a control call waited.
//! Requests are encoded into the buffer and written with one `write_all`
//! — at once for every control frame, and for [`MuxClient::hungry`] when
//! the client is next about to block in `read` (see there), so a
//! closed-loop caller pays one `write` per wake-up, not one per request.

use crate::conn::{Conn, ServerAddr};
use crate::wire::{
    encode_frame_into, AdmitPath, Frame, FrameReader, WireError, REJECT_ALREADY_BOUND,
    REJECT_BAD_PROCESS, REJECT_BUSY,
};
use ekbd_graph::random::splitmix64;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Client-side policy knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Seed for the jittered backoff stream (mixed with the process id,
    /// so a fleet sharing one seed still decorrelates).
    pub seed: u64,
    /// First backoff step in milliseconds; doubles per failed attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_backoff_ms: u64,
    /// Dial/handshake attempts before giving up.
    pub max_attempts: u32,
    /// Socket read timeout in milliseconds (the granularity at which
    /// waits notice their deadline).
    pub read_timeout_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            seed: 1,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            max_attempts: 8,
            read_timeout_ms: 25,
        }
    }
}

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server refused with this `BindReject` code.
    Rejected(u8),
    /// The server refused at its admission cap (`REJECT_BUSY`) — on every
    /// attempt, for a call that retries.
    Busy {
        /// The server's most recent retry hint, in milliseconds.
        hint_ms: u32,
    },
    /// The wait's deadline passed.
    Timeout,
    /// The server sent bytes that are not a valid frame.
    Protocol(WireError),
    /// The connection closed mid-operation.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Rejected(code) => write!(f, "rejected by server (code {code})"),
            ClientError::Busy { hint_ms } => {
                write!(f, "shed busy on every attempt (retry hint {hint_ms}ms)")
            }
            ClientError::Timeout => write!(f, "timed out"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Sleeps before the next attempt — but only if one remains. The server's
/// busy hint and the client's own jittered backoff are reconciled by
/// taking the larger of the two, once; they never stack.
fn sleep_before_retry(
    cfg: &ClientConfig,
    rng: &mut u64,
    attempt: u32,
    attempts: u32,
    last: &ClientError,
) {
    if attempt + 1 >= attempts {
        return;
    }
    let mut delay = backoff(cfg, rng, attempt);
    if let ClientError::Busy { hint_ms } = last {
        delay = delay.max(Duration::from_millis(u64::from(*hint_ms)));
    }
    std::thread::sleep(delay);
}

/// A wait's deadline, `timeout` after the wait first has to go to the
/// socket. A wait that an already decoded frame answers never reads the
/// clock.
struct Deadline {
    timeout: Duration,
    at: Option<Instant>,
}

impl Deadline {
    fn after(timeout: Duration) -> Self {
        Deadline { timeout, at: None }
    }

    /// The deadline, fixed by the first call.
    fn at(&mut self) -> Instant {
        *self.at.get_or_insert_with(|| Instant::now() + self.timeout)
    }
}

/// One dialed connection: the socket, the frames read from it and the
/// requests not yet written to it. Everything the client reads comes
/// through [`read_frame`](Self::read_frame); everything it writes leaves
/// through [`flush`](Self::flush).
struct Link {
    conn: Conn,
    reader: FrameReader,
    /// Encoded frames, in call order, that have not reached the socket.
    out: Vec<u8>,
    /// Events decoded while waiting for a control answer.
    pending: VecDeque<MuxEvent>,
}

impl Link {
    fn dial(addr: &ServerAddr, cfg: &ClientConfig) -> Result<Link, ClientError> {
        let conn = Conn::dial(addr)?;
        conn.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;
        Ok(Link {
            conn,
            reader: FrameReader::new(),
            out: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Appends `frame` behind whatever is already waiting.
    fn push(&mut self, frame: &Frame) {
        encode_frame_into(frame, &mut self.out);
    }

    /// Writes everything buffered in one `write_all`. After an error the
    /// bytes are gone either way — a partial write cannot be resumed on a
    /// frame boundary, and the connection it was meant for is dead.
    fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.conn.write_all(&self.out);
        self.out.clear();
        Ok(written?)
    }

    /// Sends `frame` now, behind anything buffered ahead of it.
    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.push(frame);
        self.flush()
    }

    /// Hard-closes the socket; what was not yet written died with it.
    fn kill(&mut self) {
        self.out.clear();
        self.conn.kill();
    }

    /// The next frame that is not a heartbeat, answering the server's
    /// `Ping`s through the request buffer so that any blocked wait keeps
    /// the session alive. Frames already read come first, and nothing is
    /// written while one remains — that is what lets a caller's answers
    /// to a batch of events leave in one write, and the clock is not read
    /// either. Once they are exhausted the `deadline` is fixed, the buffer
    /// is written and then the socket is read — at least once
    /// even when `deadline` has already passed, so a caller that polls
    /// with a zero timeout still sends what it asked and drains what the
    /// server pushed (one read blocks for
    /// [`ClientConfig::read_timeout_ms`] at most).
    fn read_frame(&mut self, deadline: &mut Deadline) -> Result<Frame, ClientError> {
        let mut read_once = false;
        loop {
            while let Some(frame) = self.reader.next_frame().map_err(ClientError::Protocol)? {
                match frame {
                    Frame::Ping { nonce } => self.push(&Frame::Pong { nonce }),
                    Frame::Pong { .. } => {}
                    other => return Ok(other),
                }
            }
            let deadline = deadline.at();
            self.flush()?;
            if read_once && Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            read_once = true;
            match self.reader.fill(&mut self.conn) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Waits (5 s at most) for the control answer `pick` recognizes.
    /// Table events that arrive meanwhile are queued for
    /// [`MuxClient::next_event`]; answers to other binds and stray
    /// unbinds are dropped.
    fn await_answer<T>(
        &mut self,
        mut pick: impl FnMut(&Frame) -> Option<T>,
    ) -> Result<T, ClientError> {
        let mut deadline = Deadline::after(Duration::from_secs(5));
        loop {
            let frame = self.read_frame(&mut deadline)?;
            if let Some(answer) = pick(&frame) {
                return Ok(answer);
            }
            match frame {
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => match table_event(&frame) {
                    Some(event) => self.pending.push_back(event),
                    None => return Err(unexpected(frame)),
                },
            }
        }
    }

    /// Binds `process` — the one admission — behind whatever requests
    /// are buffered, in the same `write`, and waits for the answer.
    fn bind(&mut self, process: u32) -> Result<AdmitPath, ClientError> {
        self.send(&Frame::Bind { process })?;
        self.await_answer(|frame| match *frame {
            Frame::Bound { process: p, path } if p == process => Some(Ok(path)),
            Frame::BindReject {
                process: p,
                code,
                retry_after_ms,
            } if p == process => Some(Err(if code == REJECT_BUSY {
                ClientError::Busy {
                    hint_ms: retry_after_ms,
                }
            } else {
                ClientError::Rejected(code)
            })),
            _ => None,
        })?
    }
}

/// Dials and binds `process` on the new connection until the server
/// admits it, retrying through busy refusals and dial failures with
/// jittered backoff — and through `ALREADY_BOUND` when
/// `already_bound_is_transient`. Any other refusal returns at once.
fn dial_until_bound(
    addr: &ServerAddr,
    cfg: &ClientConfig,
    rng: &mut u64,
    busy_retries: &mut u64,
    process: u32,
    already_bound_is_transient: bool,
) -> Result<(Link, AdmitPath), ClientError> {
    let mut last: ClientError = ClientError::Busy { hint_ms: 0 };
    let attempts = cfg.max_attempts.max(1);
    for attempt in 0..attempts {
        let bound = Link::dial(addr, cfg).and_then(|mut link| {
            let path = link.bind(process)?;
            Ok((link, path))
        });
        match bound {
            Ok(ok) => return Ok(ok),
            Err(ClientError::Rejected(code))
                if !(already_bound_is_transient && code == REJECT_ALREADY_BOUND) =>
            {
                return Err(ClientError::Rejected(code));
            }
            Err(e) => {
                if matches!(e, ClientError::Busy { .. }) {
                    *busy_retries += 1;
                }
                last = e;
                sleep_before_retry(cfg, rng, attempt, attempts, &last);
            }
        }
    }
    Err(last)
}

/// One demultiplexed table event from a [`MuxClient`] connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxEvent {
    /// `process` was granted the table at server time `at_ms`.
    Granted {
        /// The granted process.
        process: u32,
        /// Server-side grant time, ms.
        at_ms: u64,
    },
    /// `process` released the table at server time `at_ms`.
    Released {
        /// The releasing process.
        process: u32,
        /// Server-side release time, ms.
        at_ms: u64,
    },
}

/// A multiplexed session: one socket fronting many dining processes.
///
/// [`connect`](Self::connect) binds a first, *primary* process; further
/// processes are bound with [`bind`](Self::bind). All event frames arrive
/// process-tagged on the one socket; drive the whole fleet with
/// [`hungry`](Self::hungry) / [`next_event`](Self::next_event).
///
/// # When a request reaches the wire
///
/// [`hungry`](Self::hungry) appends to the connection's request buffer;
/// the buffer is written, in call order and in one `write`, when a wait
/// ([`next_event`](Self::next_event), [`bind`](Self::bind),
/// [`unbind`](Self::unbind)) has handed out every frame already read and
/// is about to read the socket, when [`flush`](Self::flush) is called, or
/// when 16 KiB have piled up. A caller that asks and then
/// waits needs nothing more; a caller that asks and then does *not* wait
/// calls `flush`. [`kill`](Self::kill) and a successful re-dial inside
/// [`reconnect`](Self::reconnect) discard what was not yet written: it
/// died with the connection, and a stale `Hungry` on the new socket
/// ahead of its process's re-`Bind` would be a protocol error.
pub struct MuxClient {
    addr: ServerAddr,
    cfg: ClientConfig,
    link: Link,
    path: AdmitPath,
    rng: u64,
    /// Every process bound here, primary first, then in bind order.
    bound: Vec<u32>,
    /// `member[p]`: whether `p` is bound here — what
    /// [`hungry`](Self::hungry) validates against, once per request.
    member: Vec<bool>,
    /// Busy refusals absorbed by this client's retry loops so far.
    pub busy_retries: u64,
}

/// Buffered request bytes at which [`MuxClient::hungry`] writes without
/// waiting for a wait: bounds the memory and the delay of a caller that
/// fires requests and never reads.
const WRITE_AT: usize = 16 * 1024;

impl fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxClient")
            .field("bound", &self.bound)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl MuxClient {
    /// Dials `addr` and binds `primary`, retrying through busy refusals
    /// and dial failures with jittered backoff.
    pub fn connect(
        addr: &ServerAddr,
        primary: u32,
        cfg: ClientConfig,
    ) -> Result<Self, ClientError> {
        let mut rng = cfg.seed ^ (u64::from(primary) << 32) ^ 0x3A7E_11E5;
        let mut busy_retries = 0;
        let (link, path) =
            dial_until_bound(addr, &cfg, &mut rng, &mut busy_retries, primary, false)?;
        let mut client = MuxClient {
            addr: addr.clone(),
            cfg,
            link,
            path,
            rng,
            bound: vec![primary],
            member: Vec::new(),
            busy_retries,
        };
        client.set_member(primary, true);
        Ok(client)
    }

    /// The primary process: the one [`connect`](Self::connect) bound.
    pub fn primary(&self) -> u32 {
        self.bound[0]
    }

    /// The primary's admission path at the most recent (re)connect.
    pub fn admit_path(&self) -> AdmitPath {
        self.path
    }

    /// Every process currently bound on this connection, primary first.
    pub fn processes(&self) -> Vec<u32> {
        self.bound.clone()
    }

    fn is_member(&self, process: u32) -> bool {
        self.member.get(process as usize) == Some(&true)
    }

    /// Ids the server admitted are below its graph's size, which bounds
    /// the table.
    fn set_member(&mut self, process: u32, on: bool) {
        let p = process as usize;
        if on && self.member.len() <= p {
            self.member.resize(p + 1, false);
        }
        if let Some(m) = self.member.get_mut(p) {
            *m = on;
        }
    }

    /// Binds `process` onto this connection, returning the admission path
    /// the server reported for it. Requests buffered by
    /// [`hungry`](Self::hungry) are written ahead of the `Bind`, in the
    /// same `write`. Past the server's admission cap this is
    /// [`ClientError::Busy`] with the server's retry hint; it is not
    /// retried here.
    pub fn bind(&mut self, process: u32) -> Result<AdmitPath, ClientError> {
        let path = self.link.bind(process)?;
        self.bound.push(process);
        self.set_member(process, true);
        Ok(path)
    }

    /// Gracefully detaches a process bound with [`bind`](Self::bind); the
    /// primary cannot be unbound. Buffered requests are written ahead of
    /// the `Unbind`, as in [`bind`](Self::bind).
    pub fn unbind(&mut self, process: u32) -> Result<(), ClientError> {
        if process == self.primary() || !self.is_member(process) {
            return Err(ClientError::Rejected(REJECT_BAD_PROCESS));
        }
        self.link.send(&Frame::Unbind { process })?;
        self.link.await_answer(|frame| {
            matches!(*frame, Frame::Unbound { process: p } if p == process).then_some(())
        })?;
        self.bound.retain(|&b| b != process);
        self.set_member(process, false);
        Ok(())
    }

    /// Requests to eat on behalf of any bound process. The request is
    /// validated and buffered; it is written by the next wait, by
    /// [`flush`](Self::flush), or here once 16 KiB are waiting — so a
    /// socket error shows up in one of those, and in this call only in
    /// the last case.
    pub fn hungry(&mut self, process: u32) -> Result<(), ClientError> {
        if !self.is_member(process) {
            return Err(ClientError::Rejected(REJECT_BAD_PROCESS));
        }
        self.link.push(&Frame::Hungry { process });
        if self.link.out.len() >= WRITE_AT {
            self.link.flush()?;
        }
        Ok(())
    }

    /// Writes every buffered request now. For a caller that asks and then
    /// does something other than wait on this client; the waits do it
    /// themselves.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.link.flush()
    }

    /// The next table event for *any* bound process, answering
    /// heartbeats along the way. Events already read are returned first;
    /// buffered requests are written once none is left and before the
    /// socket is read.
    pub fn next_event(&mut self, timeout: Duration) -> Result<MuxEvent, ClientError> {
        if let Some(e) = self.link.pending.pop_front() {
            return Ok(e);
        }
        let mut deadline = Deadline::after(timeout);
        loop {
            match self.link.read_frame(&mut deadline)? {
                // Stale control answers are dropped, not errors.
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return table_event(&frame).ok_or_else(|| unexpected(frame)),
            }
        }
    }

    /// Re-establishes the whole multiplexed session after a dead
    /// connection: dials and binds every process of
    /// [`processes`](Self::processes) again, in order. The primary's
    /// `ALREADY_BOUND` is transient — the server may not have noticed the
    /// old connection die — and is retried with backoff. Returns each
    /// process with the admission path the server reported for it,
    /// primary first; a process that cannot be bound again (claimed by
    /// someone else meanwhile) is dropped from the connection. Requests
    /// still buffered for the old connection, and events queued from it,
    /// are dropped.
    pub fn reconnect(&mut self) -> Result<Vec<(u32, AdmitPath)>, ClientError> {
        let primary = self.primary();
        let (link, path) = dial_until_bound(
            &self.addr,
            &self.cfg,
            &mut self.rng,
            &mut self.busy_retries,
            primary,
            true,
        )?;
        // The old link goes, and its unwritten requests with it.
        self.link = link;
        self.path = path;
        let mut paths = vec![(primary, path)];
        for p in self.bound.split_off(1) {
            self.set_member(p, false);
            if let Ok(bp) = self.bind(p) {
                paths.push((p, bp));
            }
        }
        Ok(paths)
    }

    /// Simulates an abrupt client death: hard-closes the socket without
    /// `Bye`. The server crashes *every* process bound here. Requests not
    /// yet written are discarded.
    pub fn kill(&mut self) {
        self.link.kill();
    }

    /// Graceful goodbye: the server detaches every bound process without
    /// crashing any of them. Buffered requests are written ahead of the
    /// `Bye`.
    pub fn bye(mut self) {
        let _ = self.link.send(&Frame::Bye);
        self.link.kill();
    }
}

/// The table event a `Granted`/`Released` frame carries.
fn table_event(frame: &Frame) -> Option<MuxEvent> {
    match *frame {
        Frame::Granted { process, at_ms } => Some(MuxEvent::Granted { process, at_ms }),
        Frame::Released { process, at_ms } => Some(MuxEvent::Released { process, at_ms }),
        _ => None,
    }
}

fn unexpected(frame: Frame) -> ClientError {
    // The server only sends framed protocol states; anything else here
    // means the two sides disagree about the session phase.
    let _ = frame;
    ClientError::Closed
}

/// Jittered exponential backoff: full period doubling capped at the
/// ceiling, then uniformly jittered over `[delay/2, delay]` so a fleet
/// retrying together spreads out instead of thundering back as a herd.
fn backoff(cfg: &ClientConfig, rng: &mut u64, attempt: u32) -> Duration {
    let exp = attempt.min(16);
    let delay = cfg
        .base_backoff_ms
        .max(1)
        .saturating_mul(1u64 << exp)
        .min(cfg.max_backoff_ms.max(1));
    let half = delay / 2;
    let jitter = splitmix64(rng) % (half + 1);
    Duration::from_millis(half + jitter)
}
