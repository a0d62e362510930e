//! Crash-safe checkpointing of the fault-simulation campaign.
//!
//! [`DetectionAnalysis`](crate::DetectionAnalysis)'s banded campaign can
//! persist its progress after every pattern band through a
//! [`CheckpointStore`]. A checkpoint is a *snapshot plus band deltas*:
//!
//! * the snapshot at `<path>` is a small versioned binary record (magic
//!   `FMCK`, format version, campaign fingerprint, raw per-pattern
//!   detection ranges) protected by an FNV-1a checksum;
//! * each later band is a delta segment `<path>.seg1`, `<path>.seg2`, …
//!   (magic `FMCD`, same framing) holding only what that band added: the
//!   new `(pattern, range)` entries of every fault that gained some, plus
//!   that fault's current union. Each segment names the snapshot checksum
//!   and the `next_pattern` it continues from, so it only ever applies to
//!   the exact state it was written after.
//!
//! Every save, snapshot or delta, is one atomic write: the record goes to
//! a sibling `.tmp` file and is renamed into place, so a crash mid-write
//! never leaves a half-written record behind. Loading reads the snapshot
//! (whose errors are the store's errors) and applies segments in order up
//! to the first one that is missing, corrupt or does not chain; a damaged
//! segment therefore costs the bands from it on, never correctness. The
//! bytes written per campaign grow with the state once instead of once
//! per band.
//!
//! The same machinery (atomic write, FNV-1a trailer, typed
//! [`CheckpointError`]s) persists one [`TestSet`] as a test-set artifact
//! (magic `FMTS`, see [`encode_test_set`]): a shard supervisor lands its
//! patterns once and every worker process loads them instead of
//! re-running ATPG.
//!
//! Resuming is bit-exact: the campaign merges per-pattern results in a
//! fixed pattern order, so restarting from any band boundary yields the
//! same [`DetectionAnalysis`](crate::DetectionAnalysis) as an
//! uninterrupted run — for any thread count on either side of the
//! interruption.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::path::{Path, PathBuf};

use fastmon_atpg::{TestPattern, TestSet};
use fastmon_faults::{DetectionRange, Interval, IntervalSet};
use fastmon_netlist::NodeId;

/// Magic bytes leading every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FMCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Magic bytes leading every band-delta segment file.
const DELTA_MAGIC: [u8; 4] = *b"FMCD";
/// Current band-delta segment format version.
const DELTA_VERSION: u32 = 1;

/// Magic bytes leading every test-set artifact file.
pub const TEST_SET_MAGIC: [u8; 4] = *b"FMTS";
/// Current test-set artifact format version.
pub const TEST_SET_VERSION: u32 = 1;

/// Errors of checkpoint persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// No checkpoint file exists (a clean fresh start, not a failure).
    Missing,
    /// The underlying filesystem operation failed.
    Io {
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the `FMCK` magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        got: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The trailing checksum does not match the payload — the file is
    /// corrupt.
    ChecksumMismatch,
    /// The file ends before the record does.
    Truncated,
    /// The checkpoint belongs to a different campaign (circuit, fault
    /// list, patterns or clock differ).
    FingerprintMismatch {
        /// Fingerprint found in the file.
        got: u64,
        /// Fingerprint of the running campaign.
        expected: u64,
    },
    /// A test-only interruption point fired (see
    /// [`CheckpointStore::with_interrupt_after`]); the checkpoint on disk
    /// is valid and resumable.
    Interrupted {
        /// Number of bands that were saved before the interruption.
        bands: usize,
    },
    /// Another live process (or thread) holds this campaign's checkpoint
    /// directory — two same-fingerprint campaigns must not interleave
    /// atomic renames onto one file.
    Locked {
        /// PID recorded in the lock file.
        holder_pid: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint file exists"),
            CheckpointError::Io { op, message } => {
                write!(f, "checkpoint {op} failed: {message}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "checkpoint format version {got} is not supported (this build reads \
                     version {supported})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupt file)")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::FingerprintMismatch { got, expected } => {
                write!(
                    f,
                    "checkpoint fingerprint {got:#018x} does not match this campaign \
                     ({expected:#018x})"
                )
            }
            CheckpointError::Interrupted { bands } => {
                write!(f, "campaign interrupted after {bands} checkpointed band(s)")
            }
            CheckpointError::Locked { holder_pid } => {
                write!(
                    f,
                    "checkpoint directory is locked by live process {holder_pid}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The persisted mid-campaign state: everything the banded fault-simulation
/// loop has accumulated up to (but not including) pattern `next_pattern`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the campaign inputs (circuit, faults, patterns,
    /// clock, glitch threshold).
    pub fingerprint: u64,
    /// First pattern index that has *not* been simulated yet.
    pub next_pattern: usize,
    /// Per fault: `(pattern, raw detection range)` entries accumulated so
    /// far, ascending by pattern.
    pub per_pattern: Vec<Vec<(u32, DetectionRange)>>,
    /// Per fault: union of the accumulated raw ranges.
    pub raw_union: Vec<DetectionRange>,
}

/// Persists campaign checkpoints as a snapshot file plus band-delta
/// segment files (`<path>.seg1`, `<path>.seg2`, …), each written
/// atomically; see [`save`](Self::save) and [`load`](Self::load).
///
/// # Example
///
/// ```
/// use fastmon_core::{CampaignCheckpoint, CheckpointError, CheckpointStore};
///
/// let dir = std::env::temp_dir().join("fastmon-checkpoint-doc");
/// let store = CheckpointStore::new(dir.join("doc.ckpt"));
/// assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
/// let cp = CampaignCheckpoint {
///     fingerprint: 7,
///     next_pattern: 2,
///     per_pattern: vec![Vec::new()],
///     raw_union: vec![fastmon_faults::DetectionRange::new()],
/// };
/// store.save(&cp)?;
/// assert_eq!(store.load()?, cp);
/// store.clear()?;
/// # Ok::<(), CheckpointError>(())
/// ```
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    interrupt_after: Option<usize>,
    saves: Cell<usize>,
    journal: RefCell<Option<Journal>>,
}

/// What a store's last successful save put on disk: the snapshot its
/// segments chain to and the state they reach. A save that extends this
/// state is written as the next segment.
#[derive(Debug)]
struct Journal {
    fingerprint: u64,
    /// FNV-1a trailer of the snapshot file.
    snapshot: u64,
    next_pattern: usize,
    /// Per fault: entries already on disk.
    entries: Vec<usize>,
    /// Segments written after the snapshot.
    segments: usize,
}

impl Journal {
    fn new(cp: &CampaignCheckpoint, snapshot: u64) -> Self {
        Journal {
            fingerprint: cp.fingerprint,
            snapshot,
            next_pattern: cp.next_pattern,
            entries: cp.per_pattern.iter().map(Vec::len).collect(),
            segments: 0,
        }
    }

    /// True when `cp` is this state grown by whole bands: same campaign
    /// and fault count, `next_pattern` not smaller, and every fault's list
    /// only appended to with entries of patterns in
    /// `[self.next_pattern, cp.next_pattern)` — exactly what a delta can
    /// carry and [`Delta::apply`] accepts.
    fn extended_by(&self, cp: &CampaignCheckpoint) -> bool {
        let range = self.next_pattern..cp.next_pattern;
        cp.fingerprint == self.fingerprint
            && cp.next_pattern >= self.next_pattern
            && cp.per_pattern.len() == self.entries.len()
            && cp.raw_union.len() == self.entries.len()
            && cp.per_pattern.iter().zip(&self.entries).all(|(list, &n)| {
                list.get(n..)
                    .is_some_and(|new| new.iter().all(|(p, _)| range.contains(&(*p as usize))))
            })
    }

    /// Records that `cp` is now on disk as one more segment.
    fn advance(&mut self, cp: &CampaignCheckpoint) {
        self.next_pattern = cp.next_pattern;
        for (n, list) in self.entries.iter_mut().zip(&cp.per_pattern) {
            *n = list.len();
        }
        self.segments += 1;
    }
}

/// Maps an [`fastmon_obs::InjectedFailure`] into the same
/// [`CheckpointError::Io`] shape a real syscall failure produces, so every
/// downstream recovery path (retry, degrade-to-restart) treats injections
/// exactly like genuine transient I/O.
fn injected_io(op: &'static str) -> impl Fn(fastmon_obs::InjectedFailure) -> CheckpointError {
    move |e| CheckpointError::Io {
        op,
        message: e.to_string(),
    }
}

impl CheckpointStore {
    /// Creates a store persisting to `path`.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            path: path.into(),
            interrupt_after: None,
            saves: Cell::new(0),
            journal: RefCell::new(None),
        }
    }

    /// Test hook simulating a crash: the `bands`-th save (the first is
    /// save one) completes on disk and then returns
    /// [`CheckpointError::Interrupted`], aborting the campaign with a
    /// valid, resumable checkpoint behind — exactly what a kill between
    /// two bands leaves.
    #[must_use]
    pub fn with_interrupt_after(mut self, bands: usize) -> Self {
        self.interrupt_after = Some(bands);
        self
    }

    /// The checkpoint file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of the run-id sidecar (`<path>.run`): the trace run id of the
    /// process that last wrote this checkpoint, enabling kill → resume
    /// trace chaining.
    fn run_sidecar_path(&self) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(".run");
        PathBuf::from(p)
    }

    /// The trace run id of the process that wrote the current checkpoint,
    /// if a sidecar survives. A resuming campaign records this as its
    /// predecessor so the two `events.jsonl` files are linkable.
    #[must_use]
    pub fn predecessor_run(&self) -> Option<u64> {
        let text = std::fs::read_to_string(self.run_sidecar_path()).ok()?;
        u64::from_str_radix(text.trim(), 16).ok()
    }

    /// Path of band-delta segment `k` (`<path>.seg<k>`, `k` from 1).
    fn segment_path(&self, k: usize) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(format!(".seg{k}"));
        PathBuf::from(p)
    }

    /// Removes every `<path>.seg<k>` file (and its `.tmp`), whatever
    /// journal wrote it — gaps left by a damaged chain included.
    fn remove_segments(&self) -> Result<(), CheckpointError> {
        let Some(name) = self.path.file_name().and_then(|n| n.to_str()) else {
            return Ok(());
        };
        let prefix = format!("{name}.seg");
        let dir = match self.path.parent() {
            Some(parent) if !parent.as_os_str().is_empty() => parent,
            _ => Path::new("."),
        };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err("read dir")(e)),
        };
        for entry in entries.flatten() {
            let file = entry.file_name();
            let is_segment = file
                .to_str()
                .and_then(|f| f.strip_prefix(&prefix))
                .map(|k| k.strip_suffix(".tmp").unwrap_or(k))
                .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()));
            if is_segment {
                match std::fs::remove_file(entry.path()) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err("remove")(e)),
                }
            }
        }
        Ok(())
    }

    /// Persists `checkpoint` and returns the number of bytes written (used
    /// by the campaign's checkpoint telemetry).
    ///
    /// When `checkpoint` extends what this store last saved — same
    /// fingerprint and fault count, `next_pattern` not smaller, every
    /// fault's entry list only appended to — only the difference is
    /// written, as the next band-delta segment. Otherwise (the store's
    /// first save, the first save after a [`load`](Self::load) or
    /// [`clear`](Self::clear), any other state) the whole state is written
    /// as a fresh snapshot, and segments left from earlier saves are then
    /// removed on a best-effort basis (a leftover chains only to the
    /// snapshot it was written after). The store trusts a growing checkpoint's already-saved
    /// entries to be unchanged and a fault's union to change only along
    /// with new entries — how the campaign grows its state.
    ///
    /// Either way the save is one atomic write (`<file>.tmp`, then
    /// rename), so a crash leaves the previous snapshot and segments
    /// intact and loadable. A failed save changes nothing the next save
    /// relies on: a retry rewrites the same segment or snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be written and
    /// [`CheckpointError::Interrupted`] when the
    /// [`with_interrupt_after`](Self::with_interrupt_after) test hook
    /// fires.
    pub fn save(&self, checkpoint: &CampaignCheckpoint) -> Result<u64, CheckpointError> {
        let mut journal = self.journal.borrow_mut();
        let written = match journal.as_mut().filter(|j| j.extended_by(checkpoint)) {
            Some(j) => {
                let bytes = encode_delta(j, checkpoint);
                write_atomic(&self.segment_path(j.segments + 1), &bytes, true)?;
                j.advance(checkpoint);
                bytes.len()
            }
            None => {
                let bytes = encode(checkpoint);
                write_atomic(&self.path, &bytes, true)?;
                *journal = Some(Journal::new(checkpoint, trailer(&bytes)));
                // Best-effort: a stale segment chains only to the
                // snapshot it was written after, so a survivor is inert.
                let _ = self.remove_segments();
                bytes.len()
            }
        };
        if self.saves.get() == 0 {
            // Best-effort: the sidecar lets a resuming process link its
            // trace back to this run's; losing it only costs the link,
            // never the checkpoint.
            let _ = std::fs::write(self.run_sidecar_path(), fastmon_obs::run_id());
        }
        let saves = self.saves.get() + 1;
        self.saves.set(saves);
        match self.interrupt_after {
            Some(n) if saves >= n => Err(CheckpointError::Interrupted { bands: saves }),
            _ => Ok(written as u64),
        }
    }

    /// Loads and validates the checkpoint: the snapshot, then its
    /// band-delta segments in order, up to the first one that is missing,
    /// corrupt or does not continue the state read so far. A damaged
    /// segment thus only rolls the result back to an earlier band. The
    /// next [`save`](Self::save) of this store writes a full snapshot.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] when no file exists; the decoding
    /// errors ([`BadMagic`](CheckpointError::BadMagic),
    /// [`UnsupportedVersion`](CheckpointError::UnsupportedVersion),
    /// [`ChecksumMismatch`](CheckpointError::ChecksumMismatch),
    /// [`Truncated`](CheckpointError::Truncated)) when the file is not a
    /// valid current-version checkpoint.
    pub fn load(&self) -> Result<CampaignCheckpoint, CheckpointError> {
        self.journal.replace(None);
        fastmon_obs::failpoints::fire("checkpoint_load").map_err(injected_io("read"))?;
        let bytes = std::fs::read(&self.path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CheckpointError::Missing
            } else {
                CheckpointError::Io {
                    op: "read",
                    message: e.to_string(),
                }
            }
        })?;
        let mut checkpoint = decode(&bytes)?;
        let snapshot = trailer(&bytes);
        for k in 1.. {
            let Ok(segment) = std::fs::read(self.segment_path(k)) else {
                break;
            };
            if !decode_delta(&segment).is_ok_and(|delta| delta.apply(&mut checkpoint, snapshot)) {
                break;
            }
        }
        Ok(checkpoint)
    }

    /// Removes the checkpoint: snapshot and segment files (no-op when
    /// absent).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when a file exists but cannot be
    /// removed.
    pub fn clear(&self) -> Result<(), CheckpointError> {
        self.journal.replace(None);
        let _ = std::fs::remove_file(self.run_sidecar_path());
        match std::fs::remove_file(&self.path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("remove")(e)),
        }
        self.remove_segments()
    }
}

const LOCK_FILE: &str = "LOCK";
const CHECKPOINT_FILE: &str = "campaign.ckpt";

/// Distinguishes concurrent lock attempts (threads of one process) in
/// their temp-file names.
static LOCK_ATTEMPT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> CheckpointError {
    move |e| CheckpointError::Io {
        op,
        message: e.to_string(),
    }
}

/// Writes `bytes` to `path` atomically: the record goes to a sibling
/// `<path>.tmp` and is renamed over the destination, so a crash mid-write
/// never leaves a half-written file behind. With `inject` set, the
/// `checkpoint_write`/`checkpoint_rename` failpoints fire *before* their
/// syscall, so an injected failure never leaves a half-written file either
/// (the real write/rename is skipped entirely) and is indistinguishable
/// from transient I/O to the retry machinery upstream.
fn write_atomic(path: &Path, bytes: &[u8], inject: bool) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err("create dir"))?;
        }
    }
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if inject {
        fastmon_obs::failpoints::fire("checkpoint_write").map_err(injected_io("write"))?;
    }
    std::fs::write(&tmp, bytes).map_err(io_err("write"))?;
    if inject {
        fastmon_obs::failpoints::fire("checkpoint_rename").map_err(injected_io("rename"))?;
    }
    std::fs::rename(&tmp, path).map_err(io_err("rename"))
}

/// True when `pid` is a currently-live process. Uses `/proc` where it
/// exists (Linux); elsewhere the answer is conservatively "alive", so
/// locks are respected rather than stolen.
fn pid_alive(pid: u32) -> bool {
    if Path::new("/proc/self").exists() {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Links the fully-written temp lock into place as `LOCK`. One steal
/// attempt: the first link failure reads the holder, and only a
/// provably-dead holder is evicted before the retry.
fn link_lock(tmp: &Path, lock_path: &Path) -> Result<(), CheckpointError> {
    for attempt in 0..2 {
        match std::fs::hard_link(tmp, lock_path) {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid != std::process::id() && !pid_alive(pid) => {
                        // Stale lock from a killed daemon: steal it.
                        if attempt == 0 {
                            std::fs::remove_file(lock_path).map_err(io_err("lock steal"))?;
                            continue;
                        }
                        return Err(CheckpointError::Locked { holder_pid: pid });
                    }
                    Some(pid) => return Err(CheckpointError::Locked { holder_pid: pid }),
                    // Unreadable holder: locks are linked into place
                    // whole, so this is foreign junk — refuse rather
                    // than guess (GC sweeps it once it ages out).
                    None => return Err(CheckpointError::Locked { holder_pid: 0 }),
                }
            }
            Err(e) => return Err(io_err("lock create")(e)),
        }
    }
    Err(CheckpointError::Locked { holder_pid: 0 })
}

/// Claims `dir`'s `LOCK` for removal by GC. Returns `false` when a live
/// holder appears (a racing [`CheckpointDir::acquire`] won the directory
/// between the sweep's checks and this claim) or the filesystem refuses;
/// stale locks — a dead holder, or unreadable junk — are evicted first.
fn claim_for_removal(dir: &Path) -> bool {
    let lock_path = dir.join(LOCK_FILE);
    for attempt in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                // Best effort: the claim is the file's existence; the
                // pid only lets a later sweep steal the claim if this
                // process dies before the removal below finishes.
                let _ = write!(f, "{}", std::process::id());
                return true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let stale = std::fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok())
                    .is_none_or(|pid| pid != std::process::id() && !pid_alive(pid));
                if attempt == 0 && stale && std::fs::remove_file(&lock_path).is_ok() {
                    continue;
                }
                return false;
            }
            Err(_) => return false,
        }
    }
    false
}

/// A root of per-job checkpoint directories keyed by campaign
/// fingerprint: `<root>/<fingerprint:016x>/campaign.ckpt`, guarded by a
/// `LOCK` file naming the holder PID.
///
/// The lock exists because checkpoint saves are atomic *renames*: two
/// same-fingerprint campaigns pointed at one file would each rename
/// valid-but-different checkpoints over the other, and a resume could
/// then merge bands from interleaved histories. [`acquire`] makes the
/// second campaign fail fast with [`CheckpointError::Locked`] instead.
/// Locks left behind by a `kill -9` name a dead PID and are stolen on
/// the next acquire, so crash recovery never needs manual cleanup.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

/// What a [`CheckpointDir::gc`] sweep did, and why survivors survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Fingerprints whose directories were removed.
    pub removed: Vec<u64>,
    /// Directories kept because their fingerprint is live/queued.
    pub kept_live: usize,
    /// Directories kept because a live process holds their lock.
    pub kept_locked: usize,
    /// Directories kept because they are younger than the grace period
    /// (a crashed job's client may be about to resubmit).
    pub kept_young: usize,
}

impl CheckpointDir {
    /// A checkpoint root at `root` (created lazily on first acquire).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointDir { root: root.into() }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The per-job directory for `fingerprint`.
    #[must_use]
    pub fn dir_for(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{fingerprint:016x}"))
    }

    /// Acquires the job directory for `fingerprint`, creating it (and the
    /// root) as needed. A `LOCK` file naming this PID is taken by
    /// hard-linking a fully-written temp file into place — linking fails
    /// if `LOCK` exists (the same atomic exclusivity as `create_new`),
    /// and any `LOCK` that exists carries its complete pid, so neither a
    /// crash nor a failed write can leave a garbled half-written lock
    /// wedging the fingerprint. A lock held by a dead process is stolen,
    /// a lock held by a live one — including another thread of this
    /// process — is [`CheckpointError::Locked`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Locked`] when the campaign is already running
    /// somewhere, [`CheckpointError::Io`] on filesystem failures.
    pub fn acquire(&self, fingerprint: u64) -> Result<JobStore, CheckpointError> {
        use std::sync::atomic::Ordering;
        let dir = self.dir_for(fingerprint);
        std::fs::create_dir_all(&dir).map_err(io_err("create dir"))?;
        let lock_path = dir.join(LOCK_FILE);
        let tmp = dir.join(format!(
            "{LOCK_FILE}.{}.{}.tmp",
            std::process::id(),
            LOCK_ATTEMPT.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, std::process::id().to_string()).map_err(io_err("lock write"))?;
        let linked = link_lock(&tmp, &lock_path);
        let _ = std::fs::remove_file(&tmp);
        linked?;
        let store = CheckpointStore::new(dir.join(CHECKPOINT_FILE));
        Ok(JobStore {
            dir,
            lock_path,
            store,
        })
    }

    /// Removes checkpoint directories whose fingerprint matches no entry
    /// in `live`, whose lock (if any) names a dead process, and whose
    /// last modification is at least `min_age` old. The grace period is
    /// what makes startup-time GC safe after a `kill -9`: freshly-crashed
    /// campaigns stay resumable until their clients have had a chance to
    /// resubmit. The sweep claims each candidate's `LOCK` before removing
    /// it, so even with a zero grace period it cannot race a concurrent
    /// [`acquire`](CheckpointDir::acquire) of the same fingerprint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the root exists but cannot be read;
    /// a missing root is an empty report, and per-directory removal
    /// failures are skipped (the next sweep retries them).
    pub fn gc(
        &self,
        live: &[u64],
        min_age: std::time::Duration,
    ) -> Result<GcReport, CheckpointError> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(io_err("read dir")(e)),
        };
        let now = std::time::SystemTime::now();
        for entry in entries.flatten() {
            let name = entry.file_name();
            // Only the 16-hex-digit directories this store created are
            // candidates; anything else in the root is not ours to touch.
            let Some(fingerprint) = name
                .to_str()
                .filter(|s| s.len() == 16)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            if live.contains(&fingerprint) {
                report.kept_live += 1;
                continue;
            }
            let dir = entry.path();
            let held = std::fs::read_to_string(dir.join(LOCK_FILE))
                .ok()
                .and_then(|s| s.trim().parse::<u32>().ok())
                .is_some_and(pid_alive);
            if held {
                report.kept_locked += 1;
                continue;
            }
            let age = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| now.duration_since(t).ok());
            // An unreadable mtime counts as young: keep, retry next sweep.
            if age.is_none_or(|a| a < min_age) {
                report.kept_young += 1;
                continue;
            }
            // With a zero grace a concurrent acquire could take this
            // directory between the checks above and the removal; claim
            // the LOCK first so the filesystem arbitrates the race
            // (exactly one of hard_link and create_new sees no lock).
            if !claim_for_removal(&dir) {
                report.kept_locked += 1;
                continue;
            }
            if std::fs::remove_dir_all(&dir).is_ok() {
                report.removed.push(fingerprint);
            } else {
                // Leave no wedge behind: drop the claim so the next
                // sweep (or a resuming campaign) can take the directory.
                let _ = std::fs::remove_file(dir.join(LOCK_FILE));
            }
        }
        report.removed.sort_unstable();
        Ok(report)
    }
}

/// An acquired per-job checkpoint directory: a [`CheckpointStore`] plus
/// the lock that makes it exclusive. The lock is released on drop;
/// [`complete`](JobStore::complete) removes the whole directory once the
/// campaign has finished and its results are landed.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    lock_path: PathBuf,
    store: CheckpointStore,
}

impl JobStore {
    /// The checkpoint store scoped to this job.
    #[must_use]
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The job directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Removes the job directory (checkpoint, lock and all) after a
    /// successful campaign.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be removed.
    pub fn complete(self) -> Result<(), CheckpointError> {
        std::fs::remove_dir_all(&self.dir).map_err(io_err("remove dir"))
        // Drop still runs but the lock file is already gone; its cleanup
        // is a tolerated no-op.
    }
}

impl Drop for JobStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Atomically persists `set` to `path` as a test-set artifact (see
/// [`encode_test_set`]).
pub(crate) fn save_test_set(path: &Path, set: &TestSet) -> Result<(), CheckpointError> {
    write_atomic(path, &encode_test_set(set), false)
}

/// Loads and validates the test-set artifact at `path`:
/// [`CheckpointError::Missing`] when no file exists, the errors of
/// [`decode_test_set`] when it is not a valid artifact.
pub(crate) fn load_test_set(path: &Path) -> Result<TestSet, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::Missing
        } else {
            io_err("read")(e)
        }
    })?;
    decode_test_set(&bytes)
}

/// Bytes of one packed launch or capture row of `width` bits (at least
/// one, so every pattern occupies space and a corrupt pattern count can
/// never outrun the payload).
fn row_bytes(width: usize) -> usize {
    width.div_ceil(8).max(1)
}

fn push_bits(out: &mut Vec<u8>, bits: &[bool]) {
    let mut row = vec![0u8; row_bytes(bits.len())];
    for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        row[i / 8] |= 1 << (i % 8);
    }
    out.extend_from_slice(&row);
}

/// Encodes `set` as a checksummed test-set artifact record: magic
/// `FMTS`, format version, the source order, then every pattern's launch
/// and capture bits (packed, least significant bit first), FNV-1a
/// trailer.
///
/// # Example
///
/// ```
/// use fastmon_atpg::{TestPattern, TestSet};
/// use fastmon_core::{decode_test_set, encode_test_set};
/// use fastmon_netlist::library;
///
/// let circuit = library::s27();
/// let mut set = TestSet::new(&circuit);
/// let width = set.sources().len();
/// set.push(TestPattern::new(vec![false; width], vec![true; width]));
/// assert_eq!(decode_test_set(&encode_test_set(&set)), Ok(set));
/// ```
#[must_use]
pub fn encode_test_set(set: &TestSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&TEST_SET_MAGIC);
    push_u32(&mut out, TEST_SET_VERSION);
    push_u64(&mut out, set.sources().len() as u64);
    for &src in set.sources() {
        // node ids are u32 in the circuit arena
        push_u32(&mut out, src.index() as u32);
    }
    push_u64(&mut out, set.len() as u64);
    for pattern in set.iter() {
        push_bits(&mut out, &pattern.launch);
        push_bits(&mut out, &pattern.capture);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// Decodes a test-set artifact record. Any input maps to a typed error or
/// a valid set, never a panic. The decoded source order is not checked
/// against any circuit here; that is the loader's job (see
/// `HdfTestFlow::load_shard_patterns`).
///
/// # Errors
///
/// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
/// [`CheckpointError::ChecksumMismatch`] or [`CheckpointError::Truncated`]
/// when `bytes` is not a valid current-version artifact.
pub fn decode_test_set(bytes: &[u8]) -> Result<TestSet, CheckpointError> {
    let mut cursor = open_record(bytes, TEST_SET_MAGIC, TEST_SET_VERSION)?;
    let width = cursor.usize()?;
    // a source count beyond the payload size is a corrupt length field
    if width > cursor.remaining() / 4 {
        return Err(CheckpointError::Truncated);
    }
    let mut sources = Vec::with_capacity(width);
    for _ in 0..width {
        sources.push(NodeId::from_index(cursor.u32()? as usize));
    }
    let count = cursor.usize()?;
    let row = row_bytes(width);
    if count.checked_mul(2 * row) != Some(cursor.remaining()) {
        return Err(CheckpointError::Truncated);
    }
    let unpack = |bits: &[u8]| -> Vec<bool> {
        (0..width)
            .map(|i| bits[i / 8] >> (i % 8) & 1 == 1)
            .collect()
    };
    let mut set = TestSet::from_sources(sources);
    for _ in 0..count {
        let launch = unpack(cursor.take(row)?);
        let capture = unpack(cursor.take(row)?);
        // both rows were unpacked to the source count, so the widths agree
        set.try_push(TestPattern { launch, capture })
            .map_err(|_| CheckpointError::Truncated)?;
    }
    cursor.finish()?;
    Ok(set)
}

/// 64-bit FNV-1a over `bytes`, used both as the file checksum and (by the
/// flow) as the campaign fingerprint hasher.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_range(out: &mut Vec<u8>, dr: &DetectionRange) {
    let outputs: Vec<(usize, &IntervalSet)> = dr.iter().collect();
    push_u64(out, outputs.len() as u64);
    for (op, set) in outputs {
        push_u64(out, op as u64);
        let ivs: Vec<&Interval> = set.iter().collect();
        push_u64(out, ivs.len() as u64);
        for iv in ivs {
            push_f64(out, iv.start);
            push_f64(out, iv.end);
        }
    }
}

fn encode(cp: &CampaignCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    push_u32(&mut out, CHECKPOINT_VERSION);
    push_u64(&mut out, cp.fingerprint);
    push_u64(&mut out, cp.next_pattern as u64);
    push_u64(&mut out, cp.per_pattern.len() as u64);
    for entries in &cp.per_pattern {
        push_entries(&mut out, entries);
    }
    for dr in &cp.raw_union {
        push_range(&mut out, dr);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

fn push_entries(out: &mut Vec<u8>, entries: &[(u32, DetectionRange)]) {
    push_u64(out, entries.len() as u64);
    for (pattern, dr) in entries {
        push_u32(out, *pattern);
        push_range(out, dr);
    }
}

/// The FNV-1a trailer of a record (its last 8 bytes; the caller checks
/// that there are at least 8).
fn trailer(record: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&record[record.len() - 8..]);
    u64::from_le_bytes(b)
}

/// Encodes what `cp` adds to the state `journal` describes as a band-delta
/// segment record: magic `FMCD`, format version, fingerprint, the snapshot
/// checksum it chains to, the base and new `next_pattern`, then for every
/// fault with new entries its index, those entries and its current union;
/// FNV-1a trailer. `cp` must extend `journal` (see
/// [`Journal::extended_by`]).
fn encode_delta(journal: &Journal, cp: &CampaignCheckpoint) -> Vec<u8> {
    let grown: Vec<(usize, &[(u32, DetectionRange)])> = cp
        .per_pattern
        .iter()
        .zip(&journal.entries)
        .enumerate()
        .filter(|(_, (list, &n))| list.len() > n)
        .map(|(fault, (list, &n))| (fault, &list[n..]))
        .collect();
    let mut out = Vec::new();
    out.extend_from_slice(&DELTA_MAGIC);
    push_u32(&mut out, DELTA_VERSION);
    push_u64(&mut out, cp.fingerprint);
    push_u64(&mut out, journal.snapshot);
    push_u64(&mut out, journal.next_pattern as u64);
    push_u64(&mut out, cp.next_pattern as u64);
    push_u64(&mut out, grown.len() as u64);
    for (fault, new) in grown {
        push_u64(&mut out, fault as u64);
        push_entries(&mut out, new);
        push_range(&mut out, &cp.raw_union[fault]);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// A decoded band-delta segment (see [`encode_delta`]).
struct Delta {
    fingerprint: u64,
    snapshot: u64,
    base: usize,
    next_pattern: usize,
    /// Ascending by fault.
    faults: Vec<FaultDelta>,
}

/// One fault's part of a [`Delta`].
struct FaultDelta {
    fault: usize,
    /// Entries the band added.
    entries: Vec<(u32, DetectionRange)>,
    /// The fault's union after the band.
    union: DetectionRange,
}

impl Delta {
    /// Applies this delta to `cp`, loaded from the snapshot whose trailer
    /// is `snapshot`, if it continues exactly that state: same campaign
    /// and snapshot, base at `cp.next_pattern`, faults in range and new
    /// entries within `[base, next_pattern)`. Returns `false`, leaving `cp`
    /// untouched, when it does not.
    fn apply(self, cp: &mut CampaignCheckpoint, snapshot: u64) -> bool {
        let range = self.base..self.next_pattern;
        let chains = self.fingerprint == cp.fingerprint
            && self.snapshot == snapshot
            && self.base == cp.next_pattern
            && self.next_pattern >= self.base
            && self
                .faults
                .last()
                .is_none_or(|f| f.fault < cp.per_pattern.len().min(cp.raw_union.len()))
            && self.faults.iter().all(|f| {
                f.entries
                    .iter()
                    .all(|(p, _)| range.contains(&(*p as usize)))
            });
        if !chains {
            return false;
        }
        for f in self.faults {
            cp.per_pattern[f.fault].extend(f.entries);
            cp.raw_union[f.fault] = f.union;
        }
        cp.next_pattern = self.next_pattern;
        true
    }
}

/// Decodes a band-delta segment record. Any input maps to a typed error or
/// a well-formed delta (faults strictly ascending), never a panic; whether
/// it chains is [`Delta::apply`]'s question.
fn decode_delta(bytes: &[u8]) -> Result<Delta, CheckpointError> {
    let mut cursor = open_record(bytes, DELTA_MAGIC, DELTA_VERSION)?;
    let fingerprint = cursor.u64()?;
    let snapshot = cursor.u64()?;
    let base = cursor.usize()?;
    let next_pattern = cursor.usize()?;
    let count = cursor.usize()?;
    // every fault takes at least 24 bytes (index, entry count, union's
    // output count): a larger count is a corrupt length field
    if count > cursor.remaining() / 24 {
        return Err(CheckpointError::Truncated);
    }
    let mut faults: Vec<FaultDelta> = Vec::with_capacity(count);
    for _ in 0..count {
        let fault = cursor.usize()?;
        if faults.last().is_some_and(|prev| prev.fault >= fault) {
            return Err(CheckpointError::Truncated);
        }
        let entries = cursor.entries()?;
        let union = cursor.range()?;
        faults.push(FaultDelta {
            fault,
            entries,
            union,
        });
    }
    cursor.finish()?;
    Ok(Delta {
        fingerprint,
        snapshot,
        base,
        next_pattern,
        faults,
    })
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Bytes left before the end of the payload.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the whole payload was consumed.
    fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn entries(&mut self) -> Result<Vec<(u32, DetectionRange)>, CheckpointError> {
        let n = self.u64()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let pattern = self.u32()?;
            let dr = self.range()?;
            entries.push((pattern, dr));
        }
        Ok(entries)
    }

    fn range(&mut self) -> Result<DetectionRange, CheckpointError> {
        let outputs = self.usize()?;
        let mut dr = DetectionRange::new();
        for _ in 0..outputs {
            let op = self.usize()?;
            let n = self.usize()?;
            let mut set = IntervalSet::new();
            for _ in 0..n {
                let start = self.f64()?;
                let end = self.f64()?;
                // encoders write only the finite, non-empty intervals a
                // set stores; anything else would break its ordering
                if !(start.is_finite() && end.is_finite() && start < end) {
                    return Err(CheckpointError::Truncated);
                }
                set.insert(Interval::new(start, end));
            }
            dr.push(op, set);
        }
        Ok(dr)
    }
}

/// Validates a record's frame — `magic`, format `version` and the trailing
/// FNV-1a checksum — and returns a cursor over its payload (the bytes
/// between the version field and the checksum).
fn open_record(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<Cursor<'_>, CheckpointError> {
    if bytes.len() < magic.len() {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..magic.len()] != magic {
        return Err(CheckpointError::BadMagic);
    }
    let mut cursor = Cursor {
        data: bytes,
        pos: magic.len(),
    };
    let got = cursor.u32()?;
    if got != version {
        return Err(CheckpointError::UnsupportedVersion {
            got,
            supported: version,
        });
    }
    if bytes.len() < cursor.pos + 8 {
        return Err(CheckpointError::Truncated);
    }
    let payload_end = bytes.len() - 8;
    if fnv1a(&bytes[..payload_end]) != trailer(bytes) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    cursor.data = &bytes[..payload_end];
    Ok(cursor)
}

fn decode(bytes: &[u8]) -> Result<CampaignCheckpoint, CheckpointError> {
    let mut cursor = open_record(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let fingerprint = cursor.u64()?;
    let next_pattern = cursor.usize()?;
    let num_faults = cursor.usize()?;
    // a fault count beyond the payload size is a corrupt length field
    if num_faults > cursor.remaining() {
        return Err(CheckpointError::Truncated);
    }
    let mut per_pattern = Vec::with_capacity(num_faults);
    for _ in 0..num_faults {
        per_pattern.push(cursor.entries()?);
    }
    let mut raw_union = Vec::with_capacity(num_faults);
    for _ in 0..num_faults {
        raw_union.push(cursor.range()?);
    }
    cursor.finish()?;
    Ok(CampaignCheckpoint {
        fingerprint,
        next_pattern,
        per_pattern,
        raw_union,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignCheckpoint {
        let mut dr = DetectionRange::new();
        let mut set = IntervalSet::new();
        set.insert(Interval::new(1.5, 2.5));
        set.insert(Interval::new(4.0, 4.5));
        dr.push(2, set);
        let mut dr2 = DetectionRange::new();
        let mut set2 = IntervalSet::new();
        set2.insert(Interval::new(0.25, 0.75));
        dr2.push(0, set2);
        CampaignCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            next_pattern: 6,
            per_pattern: vec![vec![(1, dr.clone()), (5, dr2.clone())], Vec::new()],
            raw_union: vec![dr, dr2],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample();
        let bytes = encode(&cp);
        assert_eq!(decode(&bytes).unwrap(), cp);
        // the snapshot is the FMCK v1 record byte for byte: length and
        // checksum as the format has always encoded this sample
        assert_eq!(bytes.len(), 256);
        assert_eq!(fnv1a(&bytes), 0x1530_ae8a_a3b3_eae8);
    }

    #[test]
    fn every_payload_bit_flip_is_detected() {
        let bytes = encode(&sample());
        // flip one bit in a handful of payload positions
        for pos in [8, 20, 40, bytes.len() - 20] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let err = decode(&corrupt).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch | CheckpointError::UnsupportedVersion { .. }
                ),
                "pos {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_reported_as_such() {
        let mut bytes = encode(&sample());
        bytes[4] = 99; // version field, little-endian low byte
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion { got: 99, .. }
        ));
    }

    #[test]
    fn truncation_and_magic_detected() {
        let bytes = encode(&sample());
        assert_eq!(decode(&bytes[..3]).unwrap_err(), CheckpointError::Truncated);
        assert_eq!(
            decode(&bytes[..bytes.len() - 5]).unwrap_err(),
            CheckpointError::ChecksumMismatch,
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad).unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn store_save_load_clear() {
        let dir = std::env::temp_dir().join(format!("fastmon-ckpt-{}", std::process::id()));
        let store = CheckpointStore::new(dir.join("t.ckpt"));
        assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
        let cp = sample();
        store.save(&cp).unwrap();
        assert_eq!(store.load().unwrap(), cp);
        store.clear().unwrap();
        assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
        store.clear().unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interrupt_hook_fires_after_n_saves() {
        let dir = std::env::temp_dir().join(format!("fastmon-ckpt-int-{}", std::process::id()));
        let store = CheckpointStore::new(dir.join("i.ckpt")).with_interrupt_after(2);
        let cp = sample();
        assert!(store.save(&cp).is_ok());
        assert_eq!(
            store.save(&cp).unwrap_err(),
            CheckpointError::Interrupted { bands: 2 }
        );
        // the interrupted save still reached the disk
        assert_eq!(store.load().unwrap(), cp);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn fresh_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("fastmon-ckptdir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn lock_excludes_same_fingerprint_and_releases_on_drop() {
        let root = fresh_root("lock");
        let dirs = CheckpointDir::new(&root);
        let job = dirs.acquire(0xabc).unwrap();
        // Second acquire of the same fingerprint: held by this (live)
        // process, so it must refuse, not steal.
        assert_eq!(
            dirs.acquire(0xabc).unwrap_err(),
            CheckpointError::Locked {
                holder_pid: std::process::id()
            }
        );
        // A different fingerprint is independent.
        let other = dirs.acquire(0xdef).unwrap();
        drop(other);
        // The store inside is scoped to the job directory.
        assert!(job.store().path().starts_with(dirs.dir_for(0xabc)));
        job.store().save(&sample()).unwrap();
        drop(job);
        // Lock released: reacquire succeeds and sees the checkpoint.
        let job2 = dirs.acquire(0xabc).unwrap();
        assert_eq!(job2.store().load().unwrap(), sample());
        job2.complete().unwrap();
        assert!(!dirs.dir_for(0xabc).exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn stale_lock_from_dead_pid_is_stolen() {
        let root = fresh_root("steal");
        let dirs = CheckpointDir::new(&root);
        let dir = dirs.dir_for(0x123);
        std::fs::create_dir_all(&dir).unwrap();
        // PIDs are capped well below this on Linux; nothing live owns it.
        std::fs::write(dir.join("LOCK"), "4294967294").unwrap();
        let job = dirs.acquire(0x123).unwrap();
        drop(job);
        // A garbled lock file is never stolen (writer may be mid-write).
        std::fs::write(dir.join("LOCK"), "not-a-pid").unwrap();
        assert_eq!(
            dirs.acquire(0x123).unwrap_err(),
            CheckpointError::Locked { holder_pid: 0 }
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_removes_only_stale_unlocked_aged_directories() {
        use std::time::Duration;
        let root = fresh_root("gc");
        let dirs = CheckpointDir::new(&root);
        // Missing root: empty report, not an error.
        assert_eq!(dirs.gc(&[], Duration::ZERO).unwrap(), GcReport::default());

        // live: fingerprint still queued; locked: held by this process;
        // stale: eligible; foreign: not a fingerprint directory.
        for fp in [0x1u64, 0x2, 0x3] {
            let job = dirs.acquire(fp).unwrap();
            job.store().save(&sample()).unwrap();
            if fp != 0x2 {
                drop(job); // release locks on all but 0x2
            } else {
                std::mem::forget(job); // keep 0x2's lock held on disk
            }
        }
        std::fs::create_dir_all(root.join("not-a-fingerprint")).unwrap();

        let report = dirs.gc(&[0x1], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x3]);
        assert_eq!(report.kept_live, 1);
        assert_eq!(report.kept_locked, 1);
        assert!(dirs.dir_for(0x1).exists());
        assert!(dirs.dir_for(0x2).exists());
        assert!(!dirs.dir_for(0x3).exists());
        assert!(root.join("not-a-fingerprint").exists());

        // A long grace period keeps even stale directories (crash-recent
        // campaigns stay resumable until clients resubmit).
        let report = dirs.gc(&[], Duration::from_secs(3600)).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_young, 1); // 0x1 (0x2 still lock-held)
        assert_eq!(report.kept_locked, 1);

        // Clean up the forgotten lock for 0x2 and sweep everything.
        std::fs::remove_file(dirs.dir_for(0x2).join("LOCK")).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x1, 0x2]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn lock_is_linked_whole_and_leaves_no_temp_files() {
        let root = fresh_root("whole");
        let dirs = CheckpointDir::new(&root);
        let job = dirs.acquire(0x77).unwrap();
        // The lock always carries its complete pid: it was written in
        // full before being linked into place.
        let lock = std::fs::read_to_string(dirs.dir_for(0x77).join("LOCK")).unwrap();
        assert_eq!(lock, std::process::id().to_string());
        // The temp file the link was taken from is gone again.
        let names: Vec<String> = std::fs::read_dir(dirs.dir_for(0x77))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["LOCK".to_string()]);
        drop(job);
        // A failed acquire (lock held) leaves no temp files either.
        let held = dirs.acquire(0x77).unwrap();
        dirs.acquire(0x77).unwrap_err();
        let count = std::fs::read_dir(dirs.dir_for(0x77)).unwrap().count();
        assert_eq!(count, 1); // just LOCK
        drop(held);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_claims_locks_and_sweeps_dead_or_junk_holders() {
        use std::time::Duration;
        let root = fresh_root("gc-claim");
        let dirs = CheckpointDir::new(&root);
        // A crash leftover (dead pid) and foreign junk (unparseable
        // holder) both age out; the sweep steals the lock before
        // removing so it cannot race a resuming acquire.
        let dead = dirs.dir_for(0xa);
        std::fs::create_dir_all(&dead).unwrap();
        std::fs::write(dead.join("LOCK"), "4294967294").unwrap();
        let junk = dirs.dir_for(0xb);
        std::fs::create_dir_all(&junk).unwrap();
        std::fs::write(junk.join("LOCK"), "not-a-pid").unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0xa, 0xb]);
        assert!(!dead.exists());
        assert!(!junk.exists());
        // A claim that loses to a live holder is kept, not removed —
        // the same arbitration a mid-sweep acquire would win.
        let job = dirs.acquire(0xc).unwrap();
        std::mem::forget(job); // keep the lock on disk past the JobStore
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_locked, 1);
        assert!(dirs.dir_for(0xc).exists());
        std::fs::remove_file(dirs.dir_for(0xc).join("LOCK")).unwrap();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_skips_a_locked_dir_holding_live_shard_checkpoints() {
        use std::time::Duration;
        let root = fresh_root("gc-shards");
        let dirs = CheckpointDir::new(&root);
        // A supervised campaign parks its per-shard checkpoints inside
        // the job's locked directory, so a concurrent daemon gc can
        // never reap a shard file out from under a live supervisor.
        let job = dirs.acquire(0x5d).unwrap();
        let shard_ckpt = job.dir().join("shard-1-of-4.ckpt");
        CheckpointStore::new(&shard_ckpt).save(&sample()).unwrap();
        std::mem::forget(job); // the supervisor is still alive elsewhere
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_locked, 1);
        assert!(
            shard_ckpt.exists(),
            "gc reaped a live supervised shard's checkpoint"
        );
        // Lock released (supervisor done): the whole job dir, shard
        // files included, becomes collectable again.
        std::fs::remove_file(dirs.dir_for(0x5d).join("LOCK")).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x5d]);
        assert!(!shard_ckpt.exists());
        let _ = std::fs::remove_dir_all(root);
    }

    /// States of a 3-fault campaign after each of `n` bands of two
    /// patterns: band `b` adds one entry to faults `b % 3` and
    /// `(b + 1) % 3`, so every band leaves one fault untouched. The
    /// entries overlap, so every union stays one interval, as a
    /// campaign's unions coalesce.
    fn bands(n: usize) -> Vec<CampaignCheckpoint> {
        let mut cp = CampaignCheckpoint {
            fingerprint: 0x5eed,
            next_pattern: 0,
            per_pattern: vec![Vec::new(); 3],
            raw_union: vec![DetectionRange::new(); 3],
        };
        let mut states = Vec::new();
        for b in 0..n {
            for fault in [b % 3, (b + 1) % 3] {
                let mut set = IntervalSet::new();
                set.insert(Interval::new(0.5 * b as f64, 0.5 * b as f64 + 1.0));
                let mut dr = DetectionRange::new();
                dr.push(fault, set);
                cp.raw_union[fault].merge(&dr);
                cp.per_pattern[fault].push(((2 * b + fault % 2) as u32, dr));
            }
            cp.next_pattern = 2 * b + 2;
            states.push(cp.clone());
        }
        states
    }

    /// A named way to damage a segment file.
    type Damage = (&'static str, fn(&Path));

    /// Names of the files in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn band_saves_write_one_snapshot_then_deltas_that_load_back() {
        let root = fresh_root("bands");
        let store = CheckpointStore::new(root.join("c.ckpt"));
        let states = bands(6);
        let written: Vec<u64> = states.iter().map(|cp| store.save(cp).unwrap()).collect();
        // the first save is today's FMCK v1 snapshot, byte for byte
        assert_eq!(std::fs::read(store.path()).unwrap(), encode(&states[0]));
        assert_eq!(written[0], encode(&states[0]).len() as u64);
        let mut expected = vec!["c.ckpt".to_string(), "c.ckpt.run".to_string()];
        expected.extend((1..6).map(|k| format!("c.ckpt.seg{k}")));
        expected.sort();
        assert_eq!(files(&root), expected);
        // each delta carries one band, not the state grown so far
        assert!(written[1..].iter().all(|&d| d == written[1]), "{written:?}");
        assert!(written[5] < encode(&states[5]).len() as u64 / 2);
        assert_eq!(store.load().unwrap(), states[5]);
        // after a load the next save compacts: one snapshot, no segments
        let more = bands(7);
        store.save(&more[6]).unwrap();
        assert_eq!(std::fs::read(store.path()).unwrap(), encode(&more[6]));
        assert!(!root.join("c.ckpt.seg1").exists());
        assert_eq!(store.load().unwrap(), more[6]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn failed_delta_write_is_retried_without_a_gap() {
        let root = fresh_root("retry");
        let store = CheckpointStore::new(root.join("c.ckpt"));
        let states = bands(4);
        store.save(&states[0]).unwrap();
        store.save(&states[1]).unwrap();
        // a directory where the segment's temp file goes fails the write
        let blocker = root.join("c.ckpt.seg2.tmp");
        std::fs::create_dir(&blocker).unwrap();
        assert!(matches!(
            store.save(&states[2]).unwrap_err(),
            CheckpointError::Io { op: "write", .. }
        ));
        assert!(!root.join("c.ckpt.seg2").exists());
        std::fs::remove_dir(&blocker).unwrap();
        // the retry rewrites the same segment; the next band follows it
        store.save(&states[2]).unwrap();
        store.save(&states[3]).unwrap();
        assert!(root.join("c.ckpt.seg3").exists());
        assert!(!root.join("c.ckpt.seg4").exists());
        assert_eq!(store.load().unwrap(), states[3]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_damaged_segment_k_loads_the_state_after_band_k_minus_1() {
        let states = bands(5);
        let damages: [Damage; 3] = [
            ("missing", |p| std::fs::remove_file(p).unwrap()),
            ("truncated", |p| {
                let bytes = std::fs::read(p).unwrap();
                std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
            }),
            ("flipped", |p| {
                let mut bytes = std::fs::read(p).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x08;
                std::fs::write(p, bytes).unwrap();
            }),
        ];
        for (tag, damage) in damages {
            for k in 1..5 {
                let root = fresh_root(&format!("damage-{tag}-{k}"));
                let store = CheckpointStore::new(root.join("c.ckpt"));
                for cp in &states {
                    store.save(cp).unwrap();
                }
                damage(&root.join(format!("c.ckpt.seg{k}")));
                // segment k holds band k; everything from it on is lost
                assert_eq!(store.load().unwrap(), states[k - 1], "{tag} seg{k}");
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    #[test]
    fn a_stale_segment_does_not_chain_after_a_fresh_snapshot() {
        let root = fresh_root("stale");
        let path = root.join("c.ckpt");
        let states = bands(2);
        let first = CheckpointStore::new(&path);
        first.save(&states[0]).unwrap();
        first.save(&states[1]).unwrap();
        let stale = std::fs::read(root.join("c.ckpt.seg1")).unwrap();
        // a different state at the same band boundary: only the snapshot
        // checksum tells the two journals apart
        let mut other = states[0].clone();
        other.raw_union[2] = other.raw_union[0].clone();
        let second = CheckpointStore::new(&path);
        second.save(&other).unwrap();
        assert!(!root.join("c.ckpt.seg1").exists(), "stale segment kept");
        std::fs::write(root.join("c.ckpt.seg1"), stale).unwrap();
        assert_eq!(second.load().unwrap(), other);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn clear_leaves_no_segment_file() {
        let root = fresh_root("clear");
        let store = CheckpointStore::new(root.join("c.ckpt"));
        for cp in bands(4) {
            store.save(&cp).unwrap();
        }
        // leftovers of an earlier journal: a gap and a torn temp file
        std::fs::write(root.join("c.ckpt.seg9"), b"old").unwrap();
        std::fs::write(root.join("c.ckpt.seg5.tmp"), b"torn").unwrap();
        // another store's files are not this store's to remove
        std::fs::write(root.join("d.ckpt.seg1"), b"other").unwrap();
        std::fs::write(root.join("c.ckpt.segment"), b"not a segment").unwrap();
        store.clear().unwrap();
        assert_eq!(files(&root), vec!["c.ckpt.segment", "d.ckpt.seg1"]);
        assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
        // a cleared store starts over with a snapshot
        let states = bands(2);
        store.save(&states[1]).unwrap();
        assert_eq!(std::fs::read(store.path()).unwrap(), encode(&states[1]));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn non_finite_interval_is_a_typed_error_not_a_panic() {
        // [1, 2) then [3, NaN): a checksum-valid record no campaign writes,
        // whose second insert would index an empty slice range
        let mut set = IntervalSet::new();
        set.insert(Interval::new(3.0, f64::NAN));
        set.insert(Interval::new(1.0, 2.0));
        let mut dr = DetectionRange::new();
        dr.push(0, set);
        let cp = CampaignCheckpoint {
            fingerprint: 1,
            next_pattern: 1,
            per_pattern: vec![vec![(0, dr.clone())]],
            raw_union: vec![dr],
        };
        assert_eq!(
            decode(&encode(&cp)).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn job_dirs_holding_segments_are_completed_and_collected() {
        use std::time::Duration;
        let root = fresh_root("gc-segments");
        let dirs = CheckpointDir::new(&root);
        let states = bands(3);
        // complete() removes a job dir whose checkpoint has segments
        let job = dirs.acquire(0x51).unwrap();
        for cp in &states {
            job.store().save(cp).unwrap();
        }
        assert!(job.dir().join("campaign.ckpt.seg2").exists());
        job.complete().unwrap();
        assert!(!dirs.dir_for(0x51).exists());
        // gc skips such a dir while it is locked, and removes it after
        let job = dirs.acquire(0x52).unwrap();
        for cp in &states {
            job.store().save(cp).unwrap();
        }
        std::mem::forget(job);
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_locked, 1);
        assert!(dirs.dir_for(0x52).join("campaign.ckpt.seg2").exists());
        std::fs::remove_file(dirs.dir_for(0x52).join("LOCK")).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x52]);
        assert!(!dirs.dir_for(0x52).exists());
        let _ = std::fs::remove_dir_all(root);
    }

    // Decoding is exposed to whatever bytes happen to be on disk; it must
    // map *any* input to a typed error or a valid checkpoint, never panic.
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decoding_arbitrary_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            match decode(&bytes) {
                Ok(cp) => prop_assert!(cp.per_pattern.len() == cp.raw_union.len()),
                Err(e) => {
                    // every error renders (Display is part of the contract)
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }

        #[test]
        fn decoding_mutated_valid_checkpoints_never_panics(
            pos in 0usize..4096,
            mask in 0u8..255,
        ) {
            let mut bytes = encode(&sample());
            let len = bytes.len();
            // mask + 1 keeps the XOR non-trivial (1..=255)
            bytes[pos % len] ^= mask + 1;
            if let Err(e) = decode(&bytes) {
                prop_assert!(!e.to_string().is_empty());
            }
        }

        #[test]
        fn loading_arbitrary_segment_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let root = fresh_root("prop-arbitrary");
            let store = CheckpointStore::new(root.join("c.ckpt"));
            let states = bands(1);
            store.save(&states[0]).unwrap();
            std::fs::write(root.join("c.ckpt.seg1"), &bytes).unwrap();
            prop_assert_eq!(store.load().unwrap(), states[0].clone());
            let _ = std::fs::remove_dir_all(root);
        }

        #[test]
        fn loading_mutated_segments_never_panics(
            pos in 0usize..4096,
            mask in 0u8..255,
            reseal in any::<bool>(),
        ) {
            let root = fresh_root("prop-mutated");
            let store = CheckpointStore::new(root.join("c.ckpt"));
            let states = bands(3);
            for cp in &states {
                store.save(cp).unwrap();
            }
            let seg = root.join("c.ckpt.seg1");
            let mut bytes = std::fs::read(&seg).unwrap();
            let len = bytes.len();
            // mask + 1 keeps the XOR non-trivial (1..=255)
            bytes[pos % len] ^= mask + 1;
            if reseal {
                // a fresh trailer takes the mutation past the checksum
                // into the decoder and the chain checks
                let checksum = fnv1a(&bytes[..len - 8]);
                bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
            }
            std::fs::write(&seg, &bytes).unwrap();
            let loaded = store.load().unwrap();
            if reseal {
                // a forged record may chain with made-up values, but the
                // state keeps its shape and never moves back
                prop_assert_eq!(loaded.per_pattern.len(), 3);
                prop_assert_eq!(loaded.raw_union.len(), 3);
                prop_assert!(loaded.next_pattern >= states[0].next_pattern);
            } else {
                // FNV-1a catches every single-byte change
                prop_assert_eq!(loaded, states[0].clone());
            }
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
