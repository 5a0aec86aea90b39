//! The daemon client: dials a [`DaemonServer`](crate::DaemonServer),
//! binds dining processes, and drives hungry → granted → released cycles
//! over the EKN1 wire protocol.
//!
//! Two shapes:
//!
//! * [`DaemonClient`] — one socket, one process: the original
//!   session-per-connection client.
//! * [`MuxClient`] — one socket, many processes: authenticates a primary
//!   with `Hello`/`Resume`, then multiplexes any number of secondaries
//!   over the same connection with `Bind`/`Unbind` (the gateway/proxy
//!   shape). Event frames are process-tagged, so the caller demuxes with
//!   [`MuxClient::next_event`].
//!
//! The client owns the retry policy: connection attempts and `Busy`
//! sheds back off exponentially with seeded jitter (deterministic per
//! client, decorrelated across a fleet). A `Busy` answer carries the
//! server's retry hint; the retry loop honors `max(hint, backoff)`
//! exactly once per attempt, and never sleeps after the final attempt —
//! a failed call returns at once, with the hint in the error for the
//! caller's own scheduling.

use crate::conn::{splitmix64, Conn, ServerAddr};
use crate::wire::{encode_frame, AdmitPath, Frame, FrameReader, WireError, REJECT_ALREADY_BOUND};
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
    /// The server refused with this `Reject` (or `BindReject`) code.
    Rejected(u8),
    /// Every attempt was shed with `Busy`.
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
/// `Busy` hint and the client's own jittered backoff are reconciled by
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

/// Dials and runs one handshake. A `Busy` answer returns immediately
/// with the hint attached — the *caller's* retry loop owns all sleeping.
fn dial_and_bind(
    addr: &ServerAddr,
    cfg: &ClientConfig,
    handshake: Frame,
) -> Result<(Conn, FrameReader, u64, u64, AdmitPath), ClientError> {
    let mut conn = Conn::dial(addr)?;
    conn.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;
    conn.write_all(&encode_frame(&handshake))?;
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match read_frame(&mut conn, &mut reader, deadline)? {
            Frame::Welcome {
                session,
                token,
                path,
            } => return Ok((conn, reader, session, token, path)),
            Frame::Busy { retry_after_ms } => {
                return Err(ClientError::Busy {
                    hint_ms: retry_after_ms,
                })
            }
            Frame::Reject { code } => return Err(ClientError::Rejected(code)),
            // Tolerate a stray frame racing ahead of the Welcome.
            _ => {}
        }
    }
}

/// A bound session with a daemon server.
///
/// The `Debug` form shows the session identity, not the socket.
pub struct DaemonClient {
    addr: ServerAddr,
    cfg: ClientConfig,
    process: u32,
    conn: Conn,
    reader: FrameReader,
    session: u64,
    token: u64,
    path: AdmitPath,
    rng: u64,
    /// `Busy` sheds absorbed by this client's retry loops so far.
    pub busy_retries: u64,
}

impl fmt::Debug for DaemonClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonClient")
            .field("process", &self.process)
            .field("session", &self.session)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl DaemonClient {
    /// Dials `addr` and binds `process` with a fresh `Hello`, retrying
    /// through `Busy` sheds and transient dial failures with jittered
    /// exponential backoff.
    pub fn connect(
        addr: &ServerAddr,
        process: u32,
        cfg: ClientConfig,
    ) -> Result<Self, ClientError> {
        let mut rng = cfg.seed ^ (u64::from(process) << 32) ^ 0xC11E_57AB;
        let mut busy_retries = 0;
        let mut last: ClientError = ClientError::Busy { hint_ms: 0 };
        let attempts = cfg.max_attempts.max(1);
        for attempt in 0..attempts {
            match dial_and_bind(addr, &cfg, Frame::Hello { process }) {
                Ok((conn, reader, session, token, path)) => {
                    return Ok(DaemonClient {
                        addr: addr.clone(),
                        cfg,
                        process,
                        conn,
                        reader,
                        session,
                        token,
                        path,
                        rng,
                        busy_retries,
                    });
                }
                Err(ClientError::Rejected(code)) => return Err(ClientError::Rejected(code)),
                Err(e) => {
                    if matches!(e, ClientError::Busy { .. }) {
                        busy_retries += 1;
                    }
                    last = e;
                    sleep_before_retry(&cfg, &mut rng, attempt, attempts, &last);
                }
            }
        }
        Err(last)
    }

    /// Re-establishes the session after a dead connection: `Resume` with
    /// the held credentials rides the server's journal fast path; if the
    /// server no longer knows the session, falls back to a fresh `Hello`.
    /// Returns the admission path the server reported.
    pub fn reconnect(&mut self) -> Result<AdmitPath, ClientError> {
        let mut last: ClientError = ClientError::Busy { hint_ms: 0 };
        let attempts = self.cfg.max_attempts.max(1);
        for attempt in 0..attempts {
            let resume = Frame::Resume {
                process: self.process,
                session: self.session,
                token: self.token,
            };
            match dial_and_bind(&self.addr, &self.cfg, resume) {
                Ok((conn, reader, session, token, path)) => {
                    self.conn = conn;
                    self.reader = reader;
                    self.session = session;
                    self.token = token;
                    self.path = path;
                    return Ok(path);
                }
                // The server has not detached the dead connection yet —
                // transient: back off and resume again.
                Err(ClientError::Rejected(code)) if code == REJECT_ALREADY_BOUND => {
                    last = ClientError::Rejected(code);
                }
                // The session is gone server-side: rebind fresh.
                Err(ClientError::Rejected(_)) => {
                    match dial_and_bind(
                        &self.addr,
                        &self.cfg,
                        Frame::Hello {
                            process: self.process,
                        },
                    ) {
                        Ok((conn, reader, session, token, path)) => {
                            self.conn = conn;
                            self.reader = reader;
                            self.session = session;
                            self.token = token;
                            self.path = path;
                            return Ok(path);
                        }
                        Err(ClientError::Rejected(code)) if code == REJECT_ALREADY_BOUND => {
                            last = ClientError::Rejected(code);
                        }
                        Err(ClientError::Rejected(code)) => {
                            return Err(ClientError::Rejected(code))
                        }
                        Err(e) => {
                            if matches!(e, ClientError::Busy { .. }) {
                                self.busy_retries += 1;
                            }
                            last = e;
                        }
                    }
                }
                Err(e) => {
                    if matches!(e, ClientError::Busy { .. }) {
                        self.busy_retries += 1;
                    }
                    last = e;
                }
            }
            sleep_before_retry(&self.cfg, &mut self.rng, attempt, attempts, &last);
        }
        Err(last)
    }

    /// The dining process this session is bound to.
    pub fn process(&self) -> u32 {
        self.process
    }

    /// The admission path of the most recent (re)connect.
    pub fn admit_path(&self) -> AdmitPath {
        self.path
    }

    /// Requests to eat: sends `Hungry`.
    pub fn hungry(&mut self) -> Result<(), ClientError> {
        self.conn.write_all(&encode_frame(&Frame::Hungry {
            process: self.process,
        }))?;
        Ok(())
    }

    /// Waits until the daemon grants the table (`Granted`), answering
    /// heartbeats along the way. Returns the server-side grant time.
    pub fn wait_granted(&mut self, timeout: Duration) -> Result<u64, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match read_frame(&mut self.conn, &mut self.reader, deadline)? {
                Frame::Granted { process, at_ms } if process == self.process => return Ok(at_ms),
                // A release from a previous cycle may still be in
                // flight; another process's event is never ours to act
                // on (single-process client, but tolerate it).
                Frame::Released { .. } | Frame::Granted { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Waits until the grant is released (`Released`), answering
    /// heartbeats along the way. Returns the server-side release time.
    pub fn wait_released(&mut self, timeout: Duration) -> Result<u64, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match read_frame(&mut self.conn, &mut self.reader, deadline)? {
                Frame::Released { process, at_ms } if process == self.process => return Ok(at_ms),
                // A duplicate grant (re-sent hungry) is not an error.
                Frame::Granted { .. } | Frame::Released { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Simulates an abrupt client death: hard-closes the socket without
    /// `Bye`. The server crashes the bound process and keeps the session
    /// detached; [`reconnect`](Self::reconnect) revives it.
    pub fn kill(&mut self) {
        self.conn.kill();
    }

    /// Graceful goodbye: the server detaches the session without
    /// crashing the process.
    pub fn bye(mut self) {
        let _ = self.conn.write_all(&encode_frame(&Frame::Bye));
        self.conn.kill();
    }
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
/// The connection authenticates a *primary* process (whose credentials
/// also anchor [`reconnect`](Self::reconnect)), then binds secondaries
/// with [`bind`](Self::bind). All event frames arrive process-tagged on
/// the one socket; drive the whole fleet with
/// [`hungry`](Self::hungry) / [`next_event`](Self::next_event).
pub struct MuxClient {
    addr: ServerAddr,
    cfg: ClientConfig,
    primary: u32,
    conn: Conn,
    reader: FrameReader,
    session: u64,
    token: u64,
    path: AdmitPath,
    rng: u64,
    /// Secondary processes currently bound (primary excluded).
    bound: Vec<u32>,
    /// Events decoded while waiting for a control answer.
    pending: VecDeque<MuxEvent>,
    /// `Busy` sheds absorbed by this client's retry loops so far.
    pub busy_retries: u64,
}

impl fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MuxClient")
            .field("primary", &self.primary)
            .field("session", &self.session)
            .field("bound", &self.bound)
            .finish_non_exhaustive()
    }
}

impl MuxClient {
    /// Dials `addr` and authenticates `primary` with a fresh `Hello`,
    /// retrying through `Busy` sheds with jittered backoff.
    pub fn connect(
        addr: &ServerAddr,
        primary: u32,
        cfg: ClientConfig,
    ) -> Result<Self, ClientError> {
        let mut rng = cfg.seed ^ (u64::from(primary) << 32) ^ 0x3A7E_11E5;
        let mut busy_retries = 0;
        let mut last: ClientError = ClientError::Busy { hint_ms: 0 };
        let attempts = cfg.max_attempts.max(1);
        for attempt in 0..attempts {
            match dial_and_bind(addr, &cfg, Frame::Hello { process: primary }) {
                Ok((conn, reader, session, token, path)) => {
                    return Ok(MuxClient {
                        addr: addr.clone(),
                        cfg,
                        primary,
                        conn,
                        reader,
                        session,
                        token,
                        path,
                        rng,
                        bound: Vec::new(),
                        pending: VecDeque::new(),
                        busy_retries,
                    });
                }
                Err(ClientError::Rejected(code)) => return Err(ClientError::Rejected(code)),
                Err(e) => {
                    if matches!(e, ClientError::Busy { .. }) {
                        busy_retries += 1;
                    }
                    last = e;
                    sleep_before_retry(&cfg, &mut rng, attempt, attempts, &last);
                }
            }
        }
        Err(last)
    }

    /// The primary process anchoring this connection.
    pub fn primary(&self) -> u32 {
        self.primary
    }

    /// The admission path of the most recent (re)connect.
    pub fn admit_path(&self) -> AdmitPath {
        self.path
    }

    /// Every process currently bound on this connection, primary first.
    pub fn processes(&self) -> Vec<u32> {
        let mut all = vec![self.primary];
        all.extend_from_slice(&self.bound);
        all
    }

    /// Binds a secondary `process` onto this connection, returning the
    /// admission path the server reported for it.
    pub fn bind(&mut self, process: u32) -> Result<AdmitPath, ClientError> {
        self.conn
            .write_all(&encode_frame(&Frame::Bind { process }))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match read_frame(&mut self.conn, &mut self.reader, deadline)? {
                Frame::Bound { process: p, path } if p == process => {
                    self.bound.push(process);
                    return Ok(path);
                }
                Frame::BindReject { process: p, code } if p == process => {
                    return Err(if code == crate::wire::REJECT_BUSY {
                        ClientError::Busy {
                            hint_ms: self.cfg.base_backoff_ms as u32,
                        }
                    } else {
                        ClientError::Rejected(code)
                    });
                }
                // Answers for other in-flight binds or stray unbinds.
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Gracefully detaches a secondary (or the primary's entry in the
    /// event stream stays — the primary itself cannot be unbound).
    pub fn unbind(&mut self, process: u32) -> Result<(), ClientError> {
        if !self.bound.contains(&process) {
            return Err(ClientError::Rejected(crate::wire::REJECT_BAD_PROCESS));
        }
        self.conn
            .write_all(&encode_frame(&Frame::Unbind { process }))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match read_frame(&mut self.conn, &mut self.reader, deadline)? {
                Frame::Unbound { process: p } if p == process => {
                    self.bound.retain(|&b| b != process);
                    return Ok(());
                }
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Requests to eat on behalf of any bound process.
    pub fn hungry(&mut self, process: u32) -> Result<(), ClientError> {
        if process != self.primary && !self.bound.contains(&process) {
            return Err(ClientError::Rejected(crate::wire::REJECT_BAD_PROCESS));
        }
        self.conn
            .write_all(&encode_frame(&Frame::Hungry { process }))?;
        Ok(())
    }

    /// The next table event for *any* bound process, answering
    /// heartbeats along the way.
    pub fn next_event(&mut self, timeout: Duration) -> Result<MuxEvent, ClientError> {
        if let Some(e) = self.pending.pop_front() {
            return Ok(e);
        }
        let deadline = Instant::now() + timeout;
        loop {
            match read_frame(&mut self.conn, &mut self.reader, deadline)? {
                Frame::Granted { process, at_ms } => {
                    return Ok(MuxEvent::Granted { process, at_ms })
                }
                Frame::Released { process, at_ms } => {
                    return Ok(MuxEvent::Released { process, at_ms })
                }
                // Stale control answers are dropped, not errors.
                Frame::Bound { .. } | Frame::BindReject { .. } | Frame::Unbound { .. } => {}
                frame => return Err(unexpected(frame)),
            }
        }
    }

    /// Re-establishes the whole multiplexed session after a dead
    /// connection: resumes the primary under its credentials (falling
    /// back to `Hello` if the server reaped the session), then re-binds
    /// every secondary. Returns each process with the admission path the
    /// server reported for it, primary first.
    pub fn reconnect(&mut self) -> Result<Vec<(u32, AdmitPath)>, ClientError> {
        let mut last: ClientError = ClientError::Busy { hint_ms: 0 };
        let attempts = self.cfg.max_attempts.max(1);
        for attempt in 0..attempts {
            let resume = Frame::Resume {
                process: self.primary,
                session: self.session,
                token: self.token,
            };
            let dialed = match dial_and_bind(&self.addr, &self.cfg, resume) {
                Ok(ok) => Some(ok),
                Err(ClientError::Rejected(code)) if code == REJECT_ALREADY_BOUND => {
                    last = ClientError::Rejected(code);
                    None
                }
                Err(ClientError::Rejected(_)) => {
                    // Session reaped server-side: start the fleet over.
                    match dial_and_bind(
                        &self.addr,
                        &self.cfg,
                        Frame::Hello {
                            process: self.primary,
                        },
                    ) {
                        Ok(ok) => Some(ok),
                        Err(ClientError::Rejected(code)) if code == REJECT_ALREADY_BOUND => {
                            last = ClientError::Rejected(code);
                            None
                        }
                        Err(ClientError::Rejected(code)) => {
                            return Err(ClientError::Rejected(code))
                        }
                        Err(e) => {
                            if matches!(e, ClientError::Busy { .. }) {
                                self.busy_retries += 1;
                            }
                            last = e;
                            None
                        }
                    }
                }
                Err(e) => {
                    if matches!(e, ClientError::Busy { .. }) {
                        self.busy_retries += 1;
                    }
                    last = e;
                    None
                }
            };
            if let Some((conn, reader, session, token, path)) = dialed {
                self.conn = conn;
                self.reader = reader;
                self.session = session;
                self.token = token;
                self.path = path;
                self.pending.clear();
                let secondaries = std::mem::take(&mut self.bound);
                let mut paths = vec![(self.primary, path)];
                for p in secondaries {
                    // A secondary that cannot rebind (e.g. claimed by
                    // someone else meanwhile) is dropped from the fleet,
                    // not fatal to the connection.
                    if let Ok(bp) = self.bind(p) {
                        paths.push((p, bp));
                    }
                }
                return Ok(paths);
            }
            sleep_before_retry(&self.cfg, &mut self.rng, attempt, attempts, &last);
        }
        Err(last)
    }

    /// Simulates an abrupt client death: hard-closes the socket without
    /// `Bye`. The server crashes *every* process bound here.
    pub fn kill(&mut self) {
        self.conn.kill();
    }

    /// Graceful goodbye: the server detaches every bound process without
    /// crashing any of them.
    pub fn bye(mut self) {
        let _ = self.conn.write_all(&encode_frame(&Frame::Bye));
        self.conn.kill();
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

/// The next frame that is not a heartbeat, answering the server's
/// `Ping`s inline so that any blocked wait keeps the session alive.
/// Buffered frames come first; then the socket is read — at least once
/// even when `deadline` has already passed, so a caller that polls with a
/// zero timeout still drains what the server pushed (one read blocks for
/// [`ClientConfig::read_timeout_ms`] at most).
fn read_frame(
    conn: &mut Conn,
    reader: &mut FrameReader,
    deadline: Instant,
) -> Result<Frame, ClientError> {
    let mut read_once = false;
    loop {
        while let Some(frame) = reader.next_frame().map_err(ClientError::Protocol)? {
            match frame {
                Frame::Ping { nonce } => conn.write_all(&encode_frame(&Frame::Pong { nonce }))?,
                Frame::Pong { .. } => {}
                other => return Ok(other),
            }
        }
        if read_once && Instant::now() >= deadline {
            return Err(ClientError::Timeout);
        }
        read_once = true;
        match reader.fill(conn) {
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
