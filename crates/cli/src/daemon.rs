//! `optiwised` — the OptiWISE job server.
//!
//! Serves profiling jobs over line-delimited JSON ([`crate::jsonl`]) on a
//! Unix socket and commits every completed profile to a crash-safe
//! multi-run archive (`wiser-archive`). One request line in, one response
//! line out, per connection.
//!
//! ## Job lifecycle
//!
//! ```text
//! submitted -> queued -> running -> archived     (ok:true, run id)
//!                |          |
//!                |          +-> failed/cancelled (ok:false, exit code)
//!                +-> rejected: busy | draining   (ok:false, typed error)
//! ```
//!
//! Admission is a bounded counter (`--queue N`, queued + running): a full
//! daemon answers `{"ok":false,"error":"busy"}` immediately instead of
//! building unbounded backlog. Resource exhaustion is rejected separately
//! as `{"ok":false,"error":"overloaded"}` — low disk headroom under the
//! archive (`--min-headroom`) or too many admitted request bytes
//! (`--max-queued-bytes`) — and the socket reader itself is bounded
//! (`--max-line-bytes`), so no client can grow the daemon's heap by
//! withholding a newline. Each admitted job gets its own
//! [`CancelToken`], armed with `--job-deadline` at *admission* (the budget
//! includes queue wait: a stuck daemon must not hold clients forever).
//! Jobs run on the shared `wiser-par` worker pool and checkpoint into the
//! archive's `checkpoints/` directory; a failed job reports its own exit
//! code back over the wire.
//!
//! ## Shutdown
//!
//! The signal handler is installed *before* the listener binds: there is
//! no startup window in which SIGTERM could kill the daemon uncleanly.
//! The first SIGINT/SIGTERM starts a drain — stop admitting, cancel
//! in-flight job tokens (their checkpoints survive for `optiwise resume`),
//! flush every pending response, exit 8 like any cancelled run. A second
//! signal escalates to an immediate stop of in-flight jobs. The
//! `shutdown` request drains gracefully instead: in-flight and queued
//! jobs complete and archive, then the daemon exits 0.
//!
//! On boot the daemon heals its archive (`fsck`) before serving, so a
//! previous crash — its own or the machine's — never blocks restart.

use std::process::ExitCode;

pub(crate) use imp::serve;

/// Usage text for the `optiwised` binary, kept separate from the CLI's:
/// the daemon takes no subcommand, only options.
pub const DAEMON_USAGE: &str = "\
usage: optiwised --archive DIR --socket PATH [options]
serves OptiWISE profiling jobs over line-delimited JSON on a Unix socket;
every completed profile is committed to the crash-safe archive at DIR.
options:
  --archive DIR           run archive to serve and append to (required);
                          healed with fsck on boot if damaged
  --socket PATH           Unix socket to listen on (required); a stale
                          socket file is replaced
  --jobs N                worker threads executing jobs (default: cores)
  --queue N               admission bound, queued + running jobs
                          (default: 8); beyond it submits answer `busy`
  --job-deadline SECS     per-job wall-clock budget, measured from
                          admission (queue wait counts)
  --max-runs N / --max-bytes N
                          archive retention applied after every commit
  --size test|train|ref   default workload size for jobs that name none
  --seed N                default random seed for jobs that name none
  --arch xeon|neoverse|tiny
                          default core model for jobs that name none
  --set KEY=VALUE         default uarch overrides on top of --arch; a job
                          naming its own `arch` starts from that preset
                          instead (repeatable)
  --checkpoint-every N    job checkpoint cadence in committed instructions
                          (default: 1000000)
  --max-line-bytes N      cap on one request line (default: 65536); a
                          newline-free flood gets a typed error frame after
                          at most N buffered bytes and the connection closes
  --min-headroom N        free bytes the archive filesystem must have to
                          admit a job (default: 1048576); below it submits
                          answer `overloaded` instead of failing mid-commit
  --max-queued-bytes N    cap on admitted-but-unfinished request bytes
                          (default: 1048576); beyond it submits answer
                          `overloaded`
  --inject SPEC           deterministic fault injection (tests)
  --period, --attribution, --selective and the other profiling options of
  `optiwise run` set the pipeline every job runs
protocol (one JSON object per line):
  {\"cmd\":\"ping\"}
  {\"cmd\":\"status\"}
  {\"cmd\":\"submit\",\"workload\":W[,\"size\":S][,\"seed\":N]
                   [,\"arch\":A][,\"set\":\"k=v,k=v\"]}
  unknown arch names, unknown override keys and invalid values are
  rejected with a typed error before the job is admitted; the workload
  `generated` is the random program built from the job's seed
  {\"cmd\":\"shutdown\"}
exit codes: 0 drained cleanly, 8 stopped by SIGINT/SIGTERM, 1 other
";

/// The `optiwised` binary's entry point.
pub fn daemon_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| matches!(a.as_str(), "help" | "--help" | "-h"))
    {
        print!("{DAEMON_USAGE}");
        return ExitCode::SUCCESS;
    }
    let daemon = &crate::DAEMON;
    let result = match crate::parse_options(daemon, &args) {
        Ok(opts) => (daemon.run)(&opts),
        Err(e) => {
            eprintln!("optiwised: {e}");
            eprint!("{DAEMON_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("optiwised: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::{BTreeMap, VecDeque};
    use std::io::Write;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::time::Duration;

    use optiwise::{CancelToken, OptiwiseError};
    use wiser_archive::{Archive, RetentionPolicy};
    use wiser_isa::Module;
    use wiser_sim::{ConfigErrorKind, CoreConfig};
    use wiser_store::{Checkpoint, CheckpointSpec, StoredProfile};
    use wiser_workloads::InputSize;

    use crate::jsonl::{self, Value};
    use crate::Options;

    /// How often the accept loop wakes to pump jobs and check signals.
    const POLL: Duration = Duration::from_millis(15);

    type Job = Box<dyn FnOnce() + Send + 'static>;
    type Response = BTreeMap<String, Value>;

    /// Shared daemon state: the archive, admission counters and the job
    /// token registry the signal path escalates through.
    struct Daemon {
        opts: Options,
        archive: Mutex<Archive>,
        /// Jobs admitted but not yet finished (queued + running).
        pending: AtomicUsize,
        /// Set by `shutdown` or the first signal; no new admissions.
        draining: AtomicBool,
        next_job: AtomicU64,
        /// Tokens of admitted jobs, for signal-driven cancel/kill.
        tokens: Mutex<Vec<(u64, CancelToken)>>,
        /// Handler threads still holding a connection open.
        connections: AtomicUsize,
        /// Admitted jobs waiting for the accept loop to pool them.
        job_queue: Mutex<VecDeque<Job>>,
        /// Bytes of admitted-but-unfinished request lines, bounded by
        /// `--max-queued-bytes`; admission beyond it answers `overloaded`.
        queued_bytes: AtomicU64,
    }

    /// Locks without poisoning games: a panicked holder's state is still
    /// the state (every mutation here is a single committed step).
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Decrements a counter when dropped, so admission slots and
    /// connection counts survive panics in handlers and jobs.
    struct CountGuard<'a>(&'a AtomicUsize);

    impl Drop for CountGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Releases a request's byte charge from the queued-bytes budget when
    /// dropped, panic or not.
    struct ByteGuard<'a>(&'a AtomicU64, u64);

    impl Drop for ByteGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(self.1, Ordering::AcqRel);
        }
    }

    /// Free bytes available to unprivileged writers on `path`'s
    /// filesystem, or `None` where the probe is unsupported (the headroom
    /// check is then disabled rather than guessed).
    #[cfg(target_os = "linux")]
    fn disk_headroom(path: &Path) -> Option<u64> {
        use std::os::unix::ffi::OsStrExt;

        // glibc x86-64 `struct statvfs`: eleven word-sized fields and
        // padding. Declared here because the build is hermetic (no libc
        // crate); the layout is ABI-stable.
        #[repr(C)]
        struct Statvfs {
            f_bsize: u64,
            f_frsize: u64,
            f_blocks: u64,
            f_bfree: u64,
            f_bavail: u64,
            f_files: u64,
            f_ffree: u64,
            f_favail: u64,
            f_fsid: u64,
            f_flag: u64,
            f_namemax: u64,
            __f_spare: [i32; 6],
        }
        extern "C" {
            fn statvfs(path: *const std::os::raw::c_char, buf: *mut Statvfs) -> i32;
        }
        let cpath = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
        let mut buf = std::mem::MaybeUninit::<Statvfs>::zeroed();
        if unsafe { statvfs(cpath.as_ptr(), buf.as_mut_ptr()) } != 0 {
            return None;
        }
        let buf = unsafe { buf.assume_init() };
        Some(buf.f_bavail.saturating_mul(buf.f_frsize))
    }

    #[cfg(not(target_os = "linux"))]
    fn disk_headroom(_path: &Path) -> Option<u64> {
        None
    }

    pub fn serve(opts: &Options) -> Result<(), OptiwiseError> {
        let archive_dir = opts
            .archive
            .clone()
            .ok_or_else(|| OptiwiseError::Usage("optiwised needs --archive DIR".into()))?;
        let socket = opts
            .socket
            .clone()
            .ok_or_else(|| OptiwiseError::Usage("optiwised needs --socket PATH".into()))?;

        // Signals are routed before anything else — in particular before
        // the listener binds. A SIGTERM in the startup window already
        // finds the drain path installed and exits 8, never uncleanly.
        let drain_token = CancelToken::new();
        crate::signals::install(&drain_token);

        let root = Path::new(&archive_dir);
        let archive = if root.is_dir() {
            // Self-healing boot: a crashed predecessor (or machine) must
            // never block restart. fsck re-adopts its orphans, quarantines
            // its torn writes, rebuilds its manifest.
            let report = wiser_archive::fsck(root)?;
            if report.repaired() {
                eprintln!("optiwised: archive repaired on startup: {report}");
            }
            Archive::open(root)?
        } else {
            Archive::create(root)?
        };
        let unfinished = crate::incomplete_checkpoints(&archive.checkpoints_dir());
        let unfinished = unfinished.map_or(0, |found| found.len());
        if unfinished > 0 {
            eprintln!(
                "optiwised: {unfinished} incomplete checkpoint(s) left by interrupted jobs; \
                 `optiwise resume {archive_dir}` continues the newest"
            );
        }

        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)
            .map_err(|e| OptiwiseError::Io(format!("binding {socket}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| OptiwiseError::Io(format!("{socket}: {e}")))?;

        let daemon = Arc::new(Daemon {
            archive: Mutex::new(archive),
            pending: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            tokens: Mutex::new(Vec::new()),
            connections: AtomicUsize::new(0),
            job_queue: Mutex::new(VecDeque::new()),
            queued_bytes: AtomicU64::new(0),
            opts: opts.clone(),
        });
        eprintln!(
            "optiwised: serving {archive_dir} on {socket} ({} worker(s), queue {})",
            daemon.opts.jobs, daemon.opts.queue
        );

        // The pool is deliberately *not* wired to the drain token: a
        // graceful `shutdown` must still run every admitted job. Signal
        // escalation goes through the per-job tokens instead.
        let pool = wiser_par::WorkerPool::new(daemon.opts.jobs);
        let mut drain_started = false;
        let mut escalated = false;
        loop {
            // Pump admitted jobs into the pool. This keeps running during
            // a drain: admitted jobs either finish (shutdown) or fail fast
            // on their cancelled tokens (signal), but they always answer.
            while let Some(job) = lock(&daemon.job_queue).pop_front() {
                pool.execute(job);
            }

            let signals = crate::signals::deliveries();
            if signals >= 1 && !drain_started {
                drain_started = true;
                daemon.draining.store(true, Ordering::Release);
                eprintln!("optiwised: signal received; draining (signal again to stop now)");
                // Cancel, not kill: jobs stop at the next instruction
                // boundary and their checkpoints survive for `resume`.
                for (_, token) in lock(&daemon.tokens).iter() {
                    token.cancel();
                }
            }
            if signals >= 2 && !escalated {
                escalated = true;
                eprintln!("optiwised: second signal; stopping in-flight jobs");
                for (_, token) in lock(&daemon.tokens).iter() {
                    token.kill();
                }
            }

            if daemon.draining.load(Ordering::Acquire)
                && daemon.pending.load(Ordering::Acquire) == 0
                && daemon.connections.load(Ordering::Acquire) == 0
                && lock(&daemon.job_queue).is_empty()
            {
                break;
            }

            match listener.accept() {
                Ok((stream, _)) => {
                    daemon.connections.fetch_add(1, Ordering::AcqRel);
                    let daemon = Arc::clone(&daemon);
                    std::thread::spawn(move || {
                        let _guard = CountGuard(&daemon.connections);
                        handle_connection(&daemon, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => {
                    eprintln!("optiwised: accept on {socket}: {e}");
                    std::thread::sleep(POLL);
                }
            }
        }

        pool.finish()
            .map_err(|e| OptiwiseError::Internal(format!("job worker: {e}")))?;
        let _ = std::fs::remove_file(&socket);
        let committed = lock(&daemon.archive).manifest().committed().count();
        eprintln!("optiwised: drained; archive holds {committed} committed run(s)");
        if crate::signals::deliveries() > 0 {
            // A signal stopped the daemon: same exit code as any other
            // cancelled run (SIGINT and SIGTERM are indistinguishable
            // here, by design).
            return Err(OptiwiseError::DeadlineExceeded {
                retired: 0,
                deadline: false,
            });
        }
        Ok(())
    }

    /// One connection: one request line, one response line. The read is
    /// bounded by `--max-line-bytes`: a newline-free flood gets a typed
    /// error frame after at most that many buffered bytes, and the
    /// connection closes with the rest of the flood unread.
    fn handle_connection(daemon: &Arc<Daemon>, stream: UnixStream) {
        // A client that connects and never writes must not pin the drain.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let max = daemon.opts.limits.max_line_bytes;
        let response = match jsonl::read_bounded_line(read_half, max) {
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                error_response(&format!("bad request: {e}"))
            }
            Err(_) => return, // peer gone or timed out: nobody to answer
            Ok(jsonl::LineRead::TooLong) => {
                error_response(&format!("request line exceeds {max} bytes"))
            }
            Ok(jsonl::LineRead::Line(line)) => match jsonl::parse_object(&line) {
                Err(e) => error_response(&format!("bad request: {e}")),
                Ok(request) => dispatch(daemon, &request, line.len() as u64),
            },
        };
        let mut stream = stream;
        let _ = stream.write_all(format!("{}\n", jsonl::to_line(&response)).as_bytes());
    }

    fn error_response(message: &str) -> Response {
        BTreeMap::from([
            ("ok".to_string(), Value::Bool(false)),
            ("error".to_string(), Value::Str(message.to_string())),
        ])
    }

    fn dispatch(daemon: &Arc<Daemon>, request: &Response, request_bytes: u64) -> Response {
        let cmd = match request.get("cmd") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return error_response("request needs a string `cmd`"),
        };
        match cmd {
            "ping" => BTreeMap::from([("ok".to_string(), Value::Bool(true))]),
            "status" => status(daemon),
            "shutdown" => {
                daemon.draining.store(true, Ordering::Release);
                BTreeMap::from([
                    ("ok".to_string(), Value::Bool(true)),
                    ("draining".to_string(), Value::Bool(true)),
                ])
            }
            "submit" => submit(daemon, request, request_bytes),
            other => error_response(&format!("unknown cmd `{other}`")),
        }
    }

    fn status(daemon: &Arc<Daemon>) -> Response {
        let runs = lock(&daemon.archive).manifest().committed().count() as u64;
        BTreeMap::from([
            ("ok".to_string(), Value::Bool(true)),
            ("runs".to_string(), Value::Int(runs)),
            (
                "pending".to_string(),
                Value::Int(daemon.pending.load(Ordering::Acquire) as u64),
            ),
            (
                "draining".to_string(),
                Value::Bool(daemon.draining.load(Ordering::Acquire)),
            ),
        ])
    }

    /// A typed `overloaded` rejection: the daemon is healthy but a
    /// resource budget (disk headroom, queued request bytes) is exhausted.
    /// Distinct from `busy` (queue slots) so clients can tell "retry
    /// shortly" from "the host needs attention".
    fn overloaded_response(reason: &str) -> Response {
        let mut response = error_response("overloaded");
        response.insert("reason".to_string(), Value::Str(reason.to_string()));
        response
    }

    /// Admission, scheduling and the blocking wait for one job's result.
    fn submit(daemon: &Arc<Daemon>, request: &Response, request_bytes: u64) -> Response {
        let workload = match request.get("workload") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            _ => return error_response("submit needs a string `workload`"),
        };
        let size = match request.get("size") {
            None => daemon.opts.size,
            Some(Value::Str(s)) => match InputSize::parse(s) {
                Some(size) => size,
                None => return error_response(&format!("unknown size `{s}`")),
            },
            Some(_) => return error_response("`size` must be a string"),
        };
        let seed = match request.get("seed") {
            None => daemon.opts.seed,
            Some(&Value::Int(n)) => n,
            Some(_) => return error_response("`seed` must be an integer"),
        };
        // A job may pin its own core model: `arch` restarts from a preset
        // (dropping the daemon's command-line `--set`s, which belong to
        // the daemon's default config), `set` layers overrides on top.
        // Unknown names, unknown keys and invalid values are all rejected
        // here with a typed response — never deep inside a running job.
        let (arch, mut overrides) = match request.get("arch") {
            None => (
                daemon.opts.arch_name.to_string(),
                daemon.opts.overrides.clone(),
            ),
            Some(Value::Str(s)) => (s.clone(), Vec::new()),
            Some(_) => return error_response("`arch` must be a string"),
        };
        match request.get("set") {
            None => {}
            Some(Value::Str(s)) => {
                for entry in s.split(',').filter(|e| !e.is_empty()) {
                    match CoreConfig::parse_set(entry) {
                        Ok(kv) => overrides.push(kv),
                        Err(e) => return error_response(&format!("bad `set` entry: {e}")),
                    }
                }
            }
            Some(_) => return error_response("`set` must be a string of key=value pairs"),
        }
        if let Err(e) = CoreConfig::resolve(&arch, &overrides) {
            return error_response(&match e.kind {
                ConfigErrorKind::UnknownArch => e.message,
                ConfigErrorKind::Invalid => format!("invalid config: {e}"),
                _ => format!("bad `set` entry: {e}"),
            });
        }

        if daemon.draining.load(Ordering::Acquire) {
            return error_response("draining");
        }
        // Resource admission: refuse work the daemon could accept but not
        // safely finish. A commit onto a full disk would ENOSPC after the
        // job burned its cycles — checking headroom here fails the cheap
        // way instead.
        let min_headroom = daemon.opts.limits.min_disk_headroom;
        if min_headroom > 0 {
            if let Some(dir) = &daemon.opts.archive {
                if let Some(headroom) = disk_headroom(Path::new(dir)) {
                    if headroom < min_headroom {
                        return overloaded_response(&format!(
                            "archive disk headroom {headroom} below minimum {min_headroom}"
                        ));
                    }
                }
            }
        }
        // Bound the bytes of admitted-but-unfinished request lines, so a
        // swarm of maximal requests cannot pin unbounded memory behind
        // the admission counter.
        let byte_budget = daemon.opts.limits.max_queued_bytes;
        if daemon
            .queued_bytes
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| {
                (q.saturating_add(request_bytes) <= byte_budget).then(|| q + request_bytes)
            })
            .is_err()
        {
            return overloaded_response("queued request bytes budget exhausted");
        }
        let _bytes = ByteGuard(&daemon.queued_bytes, request_bytes);
        // Admission: one bounded counter covers queued and running jobs.
        // `fetch_update` makes the slot claim atomic against racing
        // submitters; losers get a typed `busy`, never a silent backlog.
        let queue_cap = daemon.opts.queue;
        if daemon
            .pending
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                (p < queue_cap).then_some(p + 1)
            })
            .is_err()
        {
            let mut response = error_response("busy");
            response.insert(
                "pending".to_string(),
                Value::Int(daemon.pending.load(Ordering::Acquire) as u64),
            );
            return response;
        }

        let job_id = daemon.next_job.fetch_add(1, Ordering::AcqRel) + 1;
        // The job's budget starts *now*: queue wait counts against the
        // deadline, so a backed-up daemon fails jobs instead of holding
        // their clients indefinitely.
        let token = match daemon.opts.job_deadline {
            Some(secs) => CancelToken::with_deadline(Duration::from_secs_f64(secs)),
            None => CancelToken::new(),
        };
        lock(&daemon.tokens).push((job_id, token.clone()));

        let (tx, rx) = mpsc::channel::<Result<u64, OptiwiseError>>();
        let job: Job = {
            let daemon = Arc::clone(daemon);
            let workload = workload.clone();
            let token = token.clone();
            Box::new(move || {
                let _slot = CountGuard(&daemon.pending);
                // The job is its spec: the program, the request's core
                // model and seed, and the daemon's pipeline settings.
                let every = daemon.opts.checkpoint_every;
                let job = crate::fresh_job(&daemon.opts, &workload, seed, size);
                let result = job.and_then(|(modules, spec)| {
                    let ckpt = Checkpoint::fresh(CheckpointSpec {
                        arch,
                        overrides,
                        checkpoint_every: every.unwrap_or(crate::DEFAULT_CHECKPOINT_EVERY),
                        ..spec
                    });
                    serve_job(&daemon, job_id, &token, &modules, &ckpt)
                });
                lock(&daemon.tokens).retain(|(id, _)| *id != job_id);
                let _ = tx.send(result);
            })
        };
        lock(&daemon.job_queue).push_back(job);

        let mut response = match rx.recv() {
            Ok(Ok(run_id)) => BTreeMap::from([
                ("ok".to_string(), Value::Bool(true)),
                ("run".to_string(), Value::Int(run_id)),
                ("workload".to_string(), Value::Str(workload)),
            ]),
            Ok(Err(error)) => {
                let mut response = error_response(&error.to_string());
                response.insert("exit".to_string(), Value::Int(u64::from(error.exit_code())));
                response
            }
            // The job never reported: its closure panicked (the pool logs
            // it) or the pool died. The slot guard has already freed the
            // admission slot either way.
            Err(_) => error_response("job worker died before reporting"),
        };
        response.insert("job".to_string(), Value::Int(job_id));
        response
    }

    /// Runs one admitted job from its image with `crate::run_job`
    /// (checkpointing into `checkpoints/job-N.owp`), commits it to the
    /// archive, prunes, cleans up. The pipeline's own budget-escalating retry is the only one: the
    /// job's config is deterministic, so re-running a failed job would
    /// repeat its failure.
    fn serve_job(
        daemon: &Daemon,
        job_id: u64,
        token: &CancelToken,
        modules: &[Module],
        ckpt: &Checkpoint,
    ) -> Result<u64, OptiwiseError> {
        let checkpoint_path = lock(&daemon.archive)
            .checkpoints_dir()
            .join(format!("job-{job_id:06}.owp"));
        let run = crate::run_job(modules, ckpt, Some(&checkpoint_path), &daemon.opts, token)?;
        let stored = StoredProfile::from_job(&ckpt.spec, &run)?;
        let mut archive = lock(&daemon.archive);
        let run_id = archive.add_run(&stored.to_bytes(), ckpt.spec.module_hash)?;
        archive.retain(RetentionPolicy {
            max_runs: daemon.opts.max_runs,
            max_bytes: daemon.opts.max_bytes,
        })?;
        // The run is committed: its checkpoint has served its purpose.
        let _ = std::fs::remove_file(&checkpoint_path);
        Ok(run_id)
    }
}

#[cfg(not(unix))]
mod imp {
    use optiwise::OptiwiseError;

    pub fn serve(_opts: &crate::Options) -> Result<(), OptiwiseError> {
        Err(OptiwiseError::Usage(
            "optiwised uses Unix sockets; this platform has none".into(),
        ))
    }
}
