//! The `smctl` command line: every flag is declared once, in `FLAGS`,
//! and [`Args::parse`] reads a command's argv in one pass.
//!
//! A flag's declaration names it, says whether it takes a value, lists
//! the commands (and `serve` modes) that accept it, and parses its
//! value into [`Args`]. The rules are the same for every command:
//! `--flag value` and `--flag=value` mean the same, value flags reject
//! empty, missing and flag-like values, switches reject inline values
//! (`--quick=yes` is an error, not a silent `true`), and a flag the
//! command does not accept is an error naming the command.

use std::collections::HashSet;
use std::fmt::Display;
use std::hash::Hash;
use std::str::FromStr;

use sm_engine::bundle::{iscas_selection, superblue_selection};
use sm_engine::campaign::SweepSpec;
use sm_engine::job::AttackKind;
use sm_exec::fault::FaultProfile;

use crate::RunOptions;

/// The store directory a command uses when neither `--store` nor
/// `--no-store` is given.
pub const DEFAULT_STORE: &str = ".sm-store";

/// An `smctl` command. `serve` has one variant per mode, because each
/// mode reads different flags; [`Args::parse`] picks the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `smctl run`.
    Run,
    /// `smctl sweep`.
    Sweep,
    /// `smctl resume`.
    Resume,
    /// `smctl merge`.
    Merge,
    /// `smctl report`.
    Report,
    /// `smctl events`.
    Events,
    /// `smctl tail`.
    Tail,
    /// `smctl bench`.
    Bench,
    /// `smctl chaos`.
    Chaos,
    /// `smctl store`.
    Store,
    /// `smctl serve --socket PATH`: the live service.
    Serve,
    /// `smctl serve --stop`.
    ServeStop,
    /// `smctl serve --simulate N`.
    ServeSimulate,
    /// `smctl submit`.
    Submit,
    /// `smctl status`.
    Status,
}

use Cmd::{
    Bench, Chaos, Events, Merge, Report, Resume, Run, Serve, ServeSimulate, ServeStop, Status,
    Store, Submit, Sweep, Tail,
};

impl Cmd {
    /// The command named `name` on the command line (`serve` in its
    /// live mode until [`Args::parse`] sees `--stop` or `--simulate`).
    pub fn from_name(name: &str) -> Option<Cmd> {
        [
            Run, Sweep, Resume, Merge, Report, Events, Tail, Bench, Chaos, Store, Serve, Submit,
            Status,
        ]
        .into_iter()
        .find(|cmd| cmd.name() == name)
    }

    /// The command's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Run => "run",
            Sweep => "sweep",
            Resume => "resume",
            Merge => "merge",
            Report => "report",
            Events => "events",
            Tail => "tail",
            Bench => "bench",
            Chaos => "chaos",
            Store => "store",
            Serve | ServeStop | ServeSimulate => "serve",
            Submit => "submit",
            Status => "status",
        }
    }

    /// How many positional arguments the command takes: artifact
    /// names, report files, a journal or store path, a `store` action.
    fn positionals(self) -> usize {
        match self {
            Run | Merge => usize::MAX,
            Resume | Events | Tail | Store => 1,
            _ => 0,
        }
    }
}

/// How a flag's value lands in [`Args`].
enum Setter {
    /// A switch: takes no value.
    Switch(fn(&mut Args)),
    /// A flag whose value is kept as given, in the returned slot.
    Text(fn(&mut Args) -> &mut Option<String>),
    /// A value flag: parses `value` (named `flag` in errors).
    Value(fn(&mut Args, &str, &str) -> Result<(), String>),
}

/// One flag: its name, the commands that accept it, and its setter.
struct Flag {
    name: &'static str,
    commands: &'static [Cmd],
    set: Setter,
}

const fn switch(name: &'static str, commands: &'static [Cmd], set: fn(&mut Args)) -> Flag {
    Flag {
        name,
        commands,
        set: Setter::Switch(set),
    }
}

const fn text(
    name: &'static str,
    commands: &'static [Cmd],
    slot: fn(&mut Args) -> &mut Option<String>,
) -> Flag {
    Flag {
        name,
        commands,
        set: Setter::Text(slot),
    }
}

const fn value(
    name: &'static str,
    commands: &'static [Cmd],
    set: fn(&mut Args, &str, &str) -> Result<(), String>,
) -> Flag {
    Flag {
        name,
        commands,
        set: Setter::Value(set),
    }
}

/// Commands that build bundles through a store (`serve` in both modes
/// that run campaigns).
const STORED: &[Cmd] = &[Run, Sweep, Resume, Store, Serve, ServeSimulate];
/// Commands that select benchmarks (`--quick`, `--scale`).
const SELECTING: &[Cmd] = &[Run, Sweep, Bench, ServeSimulate, Submit];
/// Commands that run under an injected fault plan.
const FAULTED: &[Cmd] = &[Run, Sweep, Chaos, ServeSimulate];
/// Commands that take a sweep spec's axes.
const SWEEPING: &[Cmd] = &[Sweep, ServeSimulate, Submit];

/// Every flag `smctl` accepts.
const FLAGS: &[Flag] = &[
    value(
        "--seed",
        &[Run, Sweep, Bench, Chaos, ServeSimulate, Submit],
        |a, f, v| put(&mut a.opts.seed, num(f, v)),
    ),
    value("--scale", SELECTING, |a, f, v| {
        put(&mut a.opts.scale, at_least_one(f, v))
    }),
    switch("--quick", SELECTING, |a| a.opts.quick = true),
    value(
        "--threads",
        &[Run, Sweep, Resume, Bench, Chaos, Serve, ServeSimulate],
        |a, f, v| put(&mut a.opts.threads, num(f, v).map(|t| (t > 0).then_some(t))),
    ),
    value(
        "--timeout-secs",
        &[Sweep, Resume, ServeSimulate],
        |a, f, v| put(&mut a.opts.timeout_secs, at_least_one(f, v).map(Some)),
    ),
    text("--store", STORED, |a| &mut a.opts.store),
    switch("--no-store", STORED, |a| a.opts.store = None),
    value("--store-cap", STORED, |a, _, v| {
        put(&mut a.opts.store_cap, parse_size(v).map(Some))
    }),
    value("--fault-seed", FAULTED, |a, f, v| {
        put(&mut a.opts.fault_seed, num(f, v).map(Some))
    }),
    value("--fault-profile", FAULTED, |a, f, v| {
        let profile = FaultProfile::parse(v).map_err(|e| format!("invalid {f}: {e}"));
        put(&mut a.opts.fault_profile, profile.map(Some))
    }),
    value("--benchmarks", SWEEPING, |a, _, v| {
        put(&mut a.spec.benchmarks, parse_benchmarks(v))
    }),
    value("--seeds", SWEEPING, |a, _, v| {
        put(&mut a.spec.seeds, parse_seeds(v).map(first_seen))
    }),
    value("--split-layers", SWEEPING, |a, _, v| {
        put(&mut a.spec.split_layers, parse_layers(v).map(first_seen))
    }),
    value("--attacks", SWEEPING, |a, _, v| {
        put(&mut a.spec.attacks, parse_attacks(v).map(first_seen))
    }),
    value("--layout-seed", SWEEPING, |a, _, v| {
        put(&mut a.spec.layout_seed, parse_u64(v).map(Some))
    }),
    value("--jobs", &[Sweep], |a, _, v| {
        put(&mut a.jobs, parse_indices(v).map(Some))
    }),
    value("--shard", &[Sweep], |a, _, v| {
        put(&mut a.shard, parse_shard(v).map(Some))
    }),
    text(
        "--format",
        &[Sweep, Resume, Report, Events, ServeSimulate, Submit],
        |a| &mut a.format,
    ),
    text(
        "--out",
        &[Sweep, Resume, Merge, Bench, ServeSimulate, Submit],
        |a| &mut a.out,
    ),
    text("-o", &[Merge], |a| &mut a.out),
    switch("--timings", &[Sweep, ServeSimulate], |a| a.timings = true),
    text("--input", &[Report], |a| &mut a.input),
    text("--journal", &[Report], |a| &mut a.journal),
    switch("--follow", &[Events, Submit], |a| a.follow = true),
    text("--baseline", &[Bench], |a| &mut a.baseline),
    value("--max-regression", &[Bench], |a, f, v| {
        a.max_regression = num(f, v)?;
        if a.max_regression < 1.0 || a.max_regression.is_nan() {
            return Err(format!("{f} must be ≥ 1.0, got {}", a.max_regression));
        }
        Ok(())
    }),
    value("--min-of", &[Bench], |a, f, v| {
        a.min_of = num(f, v)?;
        if a.min_of == 0 {
            return Err(format!("{f} must be ≥ 1"));
        }
        Ok(())
    }),
    text("--socket", &[Serve, ServeStop, Submit, Status], |a| {
        &mut a.socket
    }),
    value("--workers", &[Serve], |a, f, v| {
        put(&mut a.workers, num(f, v))
    }),
    value("--max-queued", &[Serve], |a, f, v| {
        put(&mut a.max_queued, num(f, v))
    }),
    switch("--stop", &[ServeStop], |a| a.stop = true),
    value("--simulate", &[ServeSimulate], |a, f, v| {
        put(&mut a.simulate, num(f, v).map(Some))
    }),
    value("--kill", &[ServeSimulate], |a, _, v| {
        put(&mut a.kills, parse_kills(v))
    }),
    value("--sim-seed", &[ServeSimulate], |a, _, v| {
        put(&mut a.sim_seed, parse_u64(v))
    }),
];

/// Stores a parsed value, or passes its error on.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// Parses `v` as the value of `flag`.
fn num<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e| format!("invalid {flag} `{v}`: {e}"))
}

/// Parses a count that must be at least 1.
fn at_least_one<T: FromStr + Default + PartialEq>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n = num(flag, v)?;
    if n == T::default() {
        return Err(format!("invalid {flag} `0`: must be ≥ 1"));
    }
    Ok(n)
}

/// One command's argv, read in one pass: the shared options, the sweep
/// spec, and the values of the command's own flags. Flags not given
/// keep their defaults.
#[derive(Debug, Clone)]
pub struct Args {
    /// The options shared across commands. The store defaults to
    /// [`DEFAULT_STORE`].
    pub opts: RunOptions,
    /// The sweep spec from the axis flags, `--seed` and `--scale`.
    /// Without `--benchmarks` it holds the ISCAS-85 selection, narrowed
    /// to c432 and c880 by `--quick`.
    pub spec: SweepSpec,
    /// The non-flag arguments, in order.
    pub positional: Vec<String>,
    /// `--jobs SPEC`: the job indices to run.
    pub jobs: Option<Vec<usize>>,
    /// `--shard K/N`.
    pub shard: Option<(usize, usize)>,
    /// `--format F`; each command has its own default.
    pub format: Option<String>,
    /// `--out FILE` (`-o FILE` for `merge`).
    pub out: Option<String>,
    /// `--timings`.
    pub timings: bool,
    /// `--input FILE`.
    pub input: Option<String>,
    /// `--journal PATH`.
    pub journal: Option<String>,
    /// `--follow`.
    pub follow: bool,
    /// `--baseline FILE`.
    pub baseline: Option<String>,
    /// `--max-regression FACTOR` (default 2.0).
    pub max_regression: f64,
    /// `--min-of N` (default 1).
    pub min_of: usize,
    /// `--socket PATH`.
    pub socket: Option<String>,
    /// `--workers N` (default 2).
    pub workers: usize,
    /// `--max-queued N` (default 16).
    pub max_queued: usize,
    /// `--stop`.
    pub stop: bool,
    /// `--simulate N`: the simulated worker count.
    pub simulate: Option<usize>,
    /// `--kill W@K,...`: worker W dies at its first pickup after K
    /// completed jobs.
    pub kills: Vec<(usize, usize)>,
    /// `--sim-seed N` (default 1).
    pub sim_seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            opts: RunOptions {
                store: Some(DEFAULT_STORE.into()),
                ..RunOptions::default()
            },
            spec: SweepSpec {
                benchmarks: Vec::new(),
                ..SweepSpec::default()
            },
            positional: Vec::new(),
            jobs: None,
            shard: None,
            format: None,
            out: None,
            timings: false,
            input: None,
            journal: None,
            follow: false,
            baseline: None,
            max_regression: 2.0,
            min_of: 1,
            socket: None,
            workers: 2,
            max_queued: 16,
            stop: false,
            simulate: None,
            kills: Vec::new(),
            sim_seed: 1,
        }
    }
}

impl Args {
    /// Reads `argv`, the arguments after the command name, for `cmd`.
    ///
    /// Any argument that starts with `-` is a flag. For `serve`,
    /// `--stop` or `--simulate` selects the mode, and every flag given
    /// must be one that mode reads.
    ///
    /// # Errors
    ///
    /// A flag `cmd` does not accept (`unknown <cmd> flag`), a missing,
    /// empty or malformed value, an inline value on a switch, or more
    /// positional arguments than `cmd` takes.
    pub fn parse(cmd: Cmd, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut given: Vec<&Flag> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = argv[i].as_str();
            if !arg.starts_with('-') {
                if args.positional.len() == cmd.positionals() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                args.positional.push(arg.to_string());
                i += 1;
                continue;
            }
            let (name, inline) = split_flag(arg);
            // Matching by name lets `serve` take the flags of all three
            // modes until the pass has seen which mode it is.
            let flag = FLAGS
                .iter()
                .find(|f| f.name == name && f.commands.iter().any(|c| c.name() == cmd.name()))
                .ok_or_else(|| format!("unknown {} flag `{name}`; see `smctl help`", cmd.name()))?;
            match flag.set {
                Setter::Switch(set) => {
                    no_value(name, inline)?;
                    set(&mut args);
                }
                Setter::Text(slot) => {
                    *slot(&mut args) = Some(flag_value(name, inline, argv, &mut i)?)
                }
                Setter::Value(set) => {
                    let v = flag_value(name, inline, argv, &mut i)?;
                    set(&mut args, name, &v)?;
                }
            }
            given.push(flag);
            i += 1;
        }
        if cmd == Serve {
            let (mode, usage) = if args.stop {
                (ServeStop, "`smctl serve --stop`")
            } else if args.simulate.is_some() {
                (ServeSimulate, "`smctl serve --simulate`")
            } else {
                (Serve, "a live `smctl serve`")
            };
            if let Some(flag) = given.iter().find(|f| !f.commands.contains(&mode)) {
                return Err(format!(
                    "{} is not read by {usage}; see `smctl help`",
                    flag.name
                ));
            }
        }
        args.spec.scale = args.opts.scale;
        args.spec.master_seed = args.opts.seed;
        if args.spec.benchmarks.is_empty() {
            args.spec.benchmarks = iscas_selection(args.opts.quick)
                .iter()
                .map(|p| p.name.to_string())
                .collect();
        }
        Ok(args)
    }
}

/// Splits `--flag=value` into `(flag, inline_value)`; a bare `--flag`
/// yields `(flag, None)`.
pub fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((f, v)) => (f, Some(v)),
        None => (arg, None),
    }
}

/// Resolves the value of a value-taking flag: the non-empty inline part
/// if present, otherwise the next argument (which must exist and must
/// not itself be a flag), advancing `*i` past it.
pub fn flag_value(
    flag: &str,
    inline: Option<&str>,
    args: &[String],
    i: &mut usize,
) -> Result<String, String> {
    if let Some(v) = inline {
        if v.is_empty() {
            return Err(format!("{flag} needs a value (got `{flag}=`)"));
        }
        return Ok(v.to_string());
    }
    *i += 1;
    args.get(*i)
        .filter(|v| !v.starts_with("--"))
        .cloned()
        .ok_or(format!("{flag} needs a value"))
}

/// Enforces that a boolean flag carries no inline value.
pub fn no_value(flag: &str, inline: Option<&str>) -> Result<(), String> {
    match inline {
        Some(v) => Err(format!("{flag} takes no value (got `{flag}={v}`)")),
        None => Ok(()),
    }
}

/// Parses a byte size: a plain integer, optionally suffixed with
/// `K`/`M`/`G` (case-insensitive, powers of 1024). Used by
/// `--store-cap`.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, multiplier) = match t.char_indices().next_back() {
        Some((i, c)) if c.eq_ignore_ascii_case(&'k') => (&t[..i], 1u64 << 10),
        Some((i, c)) if c.eq_ignore_ascii_case(&'m') => (&t[..i], 1u64 << 20),
        Some((i, c)) if c.eq_ignore_ascii_case(&'g') => (&t[..i], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("invalid size `{s}`: {e}"))?;
    n.checked_mul(multiplier)
        .ok_or(format!("size `{s}` overflows"))
}

/// Drops repeated values, keeping the first of each: a repeated axis
/// value would run its jobs twice and leave an unresumable report.
fn first_seen<T: Clone + Eq + Hash>(mut values: Vec<T>) -> Vec<T> {
    let mut seen = HashSet::new();
    values.retain(|v| seen.insert(v.clone()));
    values
}

/// Parses `--shard K/N` (1-based shard index).
fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let (k, n) = s
        .split_once('/')
        .ok_or(format!("invalid --shard `{s}` (expected K/N, e.g. 2/4)"))?;
    let k: usize = k
        .trim()
        .parse()
        .map_err(|e| format!("invalid shard index `{k}`: {e}"))?;
    let n: usize = n
        .trim()
        .parse()
        .map_err(|e| format!("invalid shard count `{n}`: {e}"))?;
    if n == 0 || k == 0 || k > n {
        return Err(format!("--shard {s} out of range (need 1 ≤ K ≤ N, N ≥ 1)"));
    }
    Ok((k, n))
}

/// Parses `--kill W@K,...` (worker W dies at its first pickup after K
/// completed jobs).
fn parse_kills(list: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut kills = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (w, k) = part
            .split_once('@')
            .ok_or_else(|| format!("invalid --kill `{part}` (expected WORKER@AFTER_JOBS)"))?;
        let w: usize = w
            .parse()
            .map_err(|e| format!("invalid --kill worker `{w}`: {e}"))?;
        let k: usize = k
            .parse()
            .map_err(|e| format!("invalid --kill job count `{k}`: {e}"))?;
        kills.push((w, k));
    }
    Ok(kills)
}

/// Upper bound on explicit `--jobs` indices, matching the seed limit.
const MAX_JOBS: u64 = 100_000;

/// Parses a job-index list: `0,2,5..9` and `5..=9` forms, mixed.
fn parse_indices(list: &str) -> Result<Vec<usize>, String> {
    let seeds = parse_seeds(list)?;
    if seeds.len() as u64 > MAX_JOBS {
        return Err(format!("--jobs exceeds the {MAX_JOBS}-index limit"));
    }
    seeds
        .into_iter()
        .map(|s| usize::try_from(s).map_err(|_| format!("--jobs index {s} out of range")))
        .collect()
}

fn parse_benchmarks(list: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|s| !s.is_empty()) {
        match part {
            "iscas" => out.extend(iscas_selection(false).iter().map(|p| p.name.to_string())),
            "superblue" => out.extend(
                superblue_selection(false)
                    .iter()
                    .map(|p| p.name.to_string()),
            ),
            "all" => {
                out.extend(iscas_selection(false).iter().map(|p| p.name.to_string()));
                out.extend(
                    superblue_selection(false)
                        .iter()
                        .map(|p| p.name.to_string()),
                );
            }
            name => out.push(name.to_string()),
        }
    }
    // Overlapping groups (`all,iscas`) name designs twice.
    let out = first_seen(out);
    if out.is_empty() {
        return Err("--benchmarks list is empty".into());
    }
    Ok(out)
}

/// Upper bound on seeds per sweep: a fat-fingered range (`1..=10^9`)
/// should be rejected up front, not materialized.
const MAX_SEEDS: u64 = 100_000;

/// Parses `1,2,5`, `1..8` (half-open) and `1..=8` (inclusive), mixed.
fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let mut out: Vec<u64> = Vec::new();
    let push_range = |out: &mut Vec<u64>, part: &str, lo: u64, span: u64| {
        if span == 0 {
            return Err(format!("empty seed range `{part}`"));
        }
        if span > MAX_SEEDS - out.len() as u64 {
            return Err(format!(
                "seed range `{part}` exceeds the {MAX_SEEDS}-seed sweep limit"
            ));
        }
        // `lo..lo + span` would overflow for ranges ending at u64::MAX.
        out.extend((0..span).map(|k| lo + k));
        Ok(())
    };
    for part in list.split(',').filter(|s| !s.is_empty()) {
        if let Some((lo, hi)) = part.split_once("..=") {
            let (lo, hi) = (parse_u64(lo)?, parse_u64(hi)?);
            let span = hi.checked_sub(lo).map(|s| s.saturating_add(1)).unwrap_or(0);
            push_range(&mut out, part, lo, span)?;
        } else if let Some((lo, hi)) = part.split_once("..") {
            let (lo, hi) = (parse_u64(lo)?, parse_u64(hi)?);
            push_range(&mut out, part, lo, hi.saturating_sub(lo))?;
        } else {
            out.push(parse_u64(part)?);
            if out.len() as u64 > MAX_SEEDS {
                return Err(format!("--seeds exceeds the {MAX_SEEDS}-seed sweep limit"));
            }
        }
    }
    if out.is_empty() {
        return Err("--seeds list is empty".into());
    }
    Ok(out)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|e| format!("invalid number `{s}`: {e}"))
}

fn parse_layers(list: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|s| !s.is_empty()) {
        out.push(
            part.trim()
                .parse()
                .map_err(|e| format!("invalid split layer `{part}`: {e}"))?,
        );
    }
    if out.is_empty() {
        return Err("--split-layers list is empty".into());
    }
    Ok(out)
}

fn parse_attacks(list: &str) -> Result<Vec<AttackKind>, String> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|s| !s.is_empty()) {
        out.push(AttackKind::parse(part.trim())?);
    }
    if out.is_empty() {
        return Err("--attacks list is empty".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_flag_handles_both_forms() {
        assert_eq!(split_flag("--seed"), ("--seed", None));
        assert_eq!(split_flag("--seed=7"), ("--seed", Some("7")));
        assert_eq!(split_flag("--seed="), ("--seed", Some("")));
    }

    #[test]
    fn flag_value_takes_inline_or_next() {
        let a = args(&["--seed", "7"]);
        let mut i = 0;
        assert_eq!(flag_value("--seed", None, &a, &mut i).unwrap(), "7");
        assert_eq!(i, 1);
        let mut i = 0;
        assert_eq!(flag_value("--seed", Some("9"), &a, &mut i).unwrap(), "9");
        assert_eq!(i, 0);
    }

    #[test]
    fn flag_value_rejects_empty_missing_and_flaglike() {
        let mut i = 0;
        assert!(flag_value("--seed", Some(""), &args(&["--seed="]), &mut i).is_err());
        let mut i = 0;
        assert!(flag_value("--seed", None, &args(&["--seed"]), &mut i).is_err());
        let mut i = 0;
        assert!(flag_value("--seed", None, &args(&["--seed", "--quick"]), &mut i).is_err());
    }

    #[test]
    fn no_value_rejects_inline() {
        assert!(no_value("--quick", None).is_ok());
        assert!(no_value("--quick", Some("yes")).is_err());
        assert!(no_value("--timings", Some("false")).is_err());
    }

    #[test]
    fn parse_size_accepts_suffixes() {
        assert_eq!(parse_size("1024").unwrap(), 1024);
        assert_eq!(parse_size("4K").unwrap(), 4096);
        assert_eq!(parse_size("2m").unwrap(), 2 << 20);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert!(parse_size("").is_err());
        assert!(parse_size("12T").is_err());
        assert!(parse_size("-1").is_err());
        assert!(parse_size("99999999999G").is_err());
    }
}
