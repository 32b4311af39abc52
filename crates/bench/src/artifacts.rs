//! The nine printed artifacts (Tables 1–6, Figs. 4–6), as functions of a
//! [`Session`].
//!
//! The artifact binaries and `smctl run` are thin wrappers around these:
//! bundles come from the session's engine cache (built in parallel,
//! built once per benchmark), printing stays here so `table4_…` and
//! `smctl run table4` emit byte-identical output.

use crate::experiments::{fig4, fig5, fig6, table1, table2, table3, table6, Security};
use crate::quotes;
use crate::session::Session;

/// Table 1 — distances between connected gates (µm).
pub fn run_table1(session: &Session) {
    let opts = session.opts();
    println!(
        "Table 1 — distances between connected gates (µm); superblue scale 1/{}",
        opts.scale
    );
    println!(
        "{:<13} {:<10} {:>8} {:>8} {:>9}   (paper: mean/median/σ)",
        "benchmark", "layout", "mean", "median", "std-dev"
    );
    let quotes = quotes::table1();
    for run in session.superblue_runs() {
        let row = table1(&run);
        let q = quotes.iter().find(|q| q.name == row.name);
        let paper = |t: (f64, f64, f64)| format!("({:.2}/{:.2}/{:.2})", t.0, t.1, t.2);
        for (label, st, pq) in [
            ("Original", &row.original, q.map(|q| q.original)),
            ("Lifted", &row.lifted, q.map(|q| q.lifted)),
            ("Proposed", &row.proposed, q.map(|q| q.proposed)),
        ] {
            println!(
                "{:<13} {:<10} {:>8.2} {:>8.2} {:>9.2}   {}",
                row.name,
                label,
                st.mean,
                st.median,
                st.std_dev,
                pq.map(paper).unwrap_or_default()
            );
        }
        let ratio = row.proposed.mean / row.original.mean.max(1e-9);
        println!(
            "{:<13} proposed/original mean ratio: {:.1}×",
            row.name, ratio
        );
    }
}

/// Table 2 — via counts vs original.
pub fn run_table2(session: &Session) {
    let opts = session.opts();
    println!(
        "Table 2 — via counts vs original (superblue scale 1/{})",
        opts.scale
    );
    for run in session.superblue_runs() {
        let row = table2(&run);
        println!("\n{} ({} nets)", row.name, row.nets);
        print!("{:<12}", "level");
        for k in 1..=9 {
            print!("{:>9}", format!("V{}{}", k, k + 1));
        }
        println!("{:>10}", "total");
        print!("{:<12}", "Original");
        for k in 0..9 {
            print!("{:>9}", row.original.counts[k]);
        }
        println!("{:>10}", row.original.total());
        print!("{:<12}", "Lifted (%)");
        for k in 0..9 {
            print!("{:>9.2}", row.lifted_pct[k]);
        }
        println!("{:>10.2}", row.total_pct.0);
        print!("{:<12}", "Proposed(%)");
        for k in 0..9 {
            print!("{:>9.2}", row.proposed_pct[k]);
        }
        println!("{:>10.2}", row.total_pct.1);
    }
    println!("\npaper shape: proposed adds 10–300% in V45..V910 while naive lifting stays <6%;");
    println!("both keep total via overhead in the single digits.");
}

/// Table 3 — crouting attack at the M5 split.
pub fn run_table3(session: &Session) {
    let opts = session.opts();
    println!(
        "Table 3 — crouting attack at the M5 split (superblue scale 1/{})",
        opts.scale
    );
    println!(
        "{:<13} {:<10} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "benchmark", "layout", "#vpins", "E[LS]@15", "E[LS]@30", "E[LS]@45", "match"
    );
    let runs = session.superblue_runs();
    let rows = session.budget().map(&runs, |_, run| table3(run));
    for row in rows {
        for (label, rep) in [
            ("Original", &row.original),
            ("Lifted", &row.lifted),
            ("Proposed", &row.proposed),
        ] {
            print!("{:<13} {:<10} {:>8}", row.name, label, rep.num_vpins);
            for b in &rep.boxes {
                print!(" {:>10.2}", b.expected_list_size);
            }
            let match_widest = rep
                .boxes
                .last()
                .map(|b| b.match_in_list * 100.0)
                .unwrap_or(0.0);
            println!(" {:>7.1}%", match_widest);
        }
    }
    println!("\npaper shape: proposed has more vpins and equal-or-larger candidate lists.");
}

fn fmt_security(s: &Security) -> String {
    format!("{:5.1}/{:5.1}/{:5.1}", s.ccr, s.oer, s.hd)
}

/// Table 4 — placement-centric comparison.
pub fn run_table4(session: &Session) {
    println!("Table 4 — placement-centric comparison (CCR/OER/HD %, splits M3/M4/M5 averaged)");
    println!(
        "{:<8} | {:>18} | {:>18} | {:>18} || paper orig / paper proposed",
        "bench", "original", "placement-perturb", "proposed"
    );
    let quotes = quotes::table4();
    let rows = session.security_rows();
    let mut avg = [0.0f64; 9];
    let mut n = 0.0;
    for row in rows {
        let q = quotes.iter().find(|q| q.name == row.name).expect("quoted");
        println!(
            "{:<8} | {} | {} | {} || {:.1}/{:.1}/{:.1} — {:.1}/{:.1}/{:.1}",
            row.name,
            fmt_security(&row.original),
            fmt_security(&row.placement_perturbation),
            fmt_security(&row.proposed),
            q.original.0,
            q.original.1,
            q.original.2,
            q.proposed.0,
            q.proposed.1,
            q.proposed.2,
        );
        for (i, v) in [
            row.original.ccr,
            row.original.oer,
            row.original.hd,
            row.placement_perturbation.ccr,
            row.placement_perturbation.oer,
            row.placement_perturbation.hd,
            row.proposed.ccr,
            row.proposed.oer,
            row.proposed.hd,
        ]
        .into_iter()
        .enumerate()
        {
            avg[i] += v;
        }
        n += 1.0;
    }
    for v in &mut avg {
        *v /= n;
    }
    println!(
        "{:<8} | {:5.1}/{:5.1}/{:5.1} | {:5.1}/{:5.1}/{:5.1} | {:5.1}/{:5.1}/{:5.1} || paper avg 94.3/65.3/7.1 — 0/99.9/40.4",
        "Average", avg[0], avg[1], avg[2], avg[3], avg[4], avg[5], avg[6], avg[7], avg[8]
    );
}

/// Table 5 — routing-centric comparison.
pub fn run_table5(session: &Session) {
    println!("Table 5 — routing-centric comparison (CCR/OER/HD %, splits M3/M4/M5 averaged)");
    println!(
        "{:<8} | {:>18} | {:>18} | {:>18} | {:>18} || paper [3] CCR, [12] CCR",
        "bench", "original", "pin-swapping", "routing-perturb", "proposed"
    );
    let quotes = quotes::table5();
    for row in session.security_rows() {
        let q = quotes.iter().find(|q| q.name == row.name).expect("quoted");
        println!(
            "{:<8} | {} | {} | {} | {} || {}, {:.1}",
            row.name,
            fmt_security(&row.original),
            fmt_security(&row.pin_swapping),
            fmt_security(&row.routing_perturbation),
            fmt_security(&row.proposed),
            q.pin_swap
                .map(|p| format!("{:.1}", p.0))
                .unwrap_or_else(|| "N/A".into()),
            q.wang17.0,
        );
    }
    println!("paper averages: pin swapping 88.1 CCR; routing perturbation 72.4 CCR; proposed 0 CCR / 99.9 OER / 40.4 HD");
}

/// Table 6 — additional upper vias vs routing blockage.
pub fn run_table6(session: &Session) {
    let opts = session.opts();
    println!(
        "Table 6 — additional upper vias vs routing blockage [7] (scale 1/{})",
        opts.scale
    );
    println!(
        "{:<13} {:>12} {:>12}   {:>12} {:>12}   {:>12} {:>12}",
        "benchmark",
        "ours ΔV67%",
        "ours ΔV78%",
        "paper ΔV67%",
        "paper ΔV78%",
        "[7] ΔV67%",
        "[7] ΔV78%"
    );
    let quotes = quotes::table6();
    let mut ours = (0.0, 0.0);
    let mut n = 0.0;
    for run in session.superblue_runs() {
        let row = table6(&run);
        let q = quotes
            .iter()
            .find(|q| q.name == row.name)
            .expect("all quoted");
        println!(
            "{:<13} {:>12.2} {:>12.2}   {:>12.2} {:>12.2}   {:>12.2} {:>12.2}",
            row.name,
            row.dv67_pct,
            row.dv78_pct,
            q.proposed.0,
            q.proposed.1,
            q.blockage.0,
            q.blockage.1
        );
        ours.0 += row.dv67_pct;
        ours.1 += row.dv78_pct;
        n += 1.0;
    }
    println!(
        "{:<13} {:>12.2} {:>12.2}   (paper avg 58.95 / 75.31; blockage avg 28.52 / 53.48)",
        "Average",
        ours.0 / n,
        ours.1 / n
    );
}

fn histogram(label: &str, sample: &[f64]) {
    let max = sample.iter().copied().fold(0.0f64, f64::max).max(1.0);
    let buckets = 12usize;
    let mut counts = vec![0usize; buckets];
    for &v in sample {
        let b = ((v / max) * (buckets as f64 - 1.0)) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    println!("\n{label}: {} connections, max {:.1} µm", sample.len(), max);
    for (i, &c) in counts.iter().enumerate() {
        let lo = max * i as f64 / buckets as f64;
        let hi = max * (i + 1) as f64 / buckets as f64;
        let bar = "#".repeat(c * 50 / peak);
        println!("{lo:7.1}–{hi:7.1} µm |{bar} {c}");
    }
}

/// Fig. 4 — per-net distance distributions for superblue18.
pub fn run_fig4(session: &Session) {
    let opts = session.opts();
    println!(
        "Fig. 4 — distances between drivers/sinks, superblue18 (scale 1/{})",
        opts.scale
    );
    let run = session.superblue18();
    let data = fig4(&run);
    histogram("(a) original", &data.original);
    histogram("(b) naively lifted", &data.lifted);
    histogram("(c) proposed", &data.proposed);
    println!("\npaper shape: (a) and (b) hug zero; (c) spreads to die scale.");
}

/// Fig. 5 — wirelength contribution per metal layer.
pub fn run_fig5(session: &Session) {
    let opts = session.opts();
    println!(
        "Fig. 5 — wirelength share per layer for randomized nets (scale 1/{})",
        opts.scale
    );
    for run in session.superblue_runs() {
        let row = fig5(&run);
        println!("\n{}", row.name);
        print!("{:<12}", "layout");
        for m in 1..=10 {
            print!("{:>7}", format!("M{m}"));
        }
        println!();
        for (label, shares) in [
            ("Original", &row.original),
            ("Lifted", &row.lifted),
            ("Proposed", &row.proposed),
        ] {
            print!("{:<12}", label);
            for s in shares.iter() {
                print!("{:>6.1}%", s);
            }
            println!();
        }
    }
    println!("\npaper shape: original keeps most wiring in M2–M5; proposed concentrates it in the lift layers (M8/M9).");
}

/// Fig. 6 — PPA overheads on ISCAS-85.
pub fn run_fig6(session: &Session) {
    println!("Fig. 6 — PPA overheads on ISCAS-85 (20% budget)");
    println!(
        "{:<8} {:>8} {:>8} {:>8}",
        "bench", "area%", "power%", "delay%"
    );
    let mut avg = [0.0f64; 3];
    let mut n = 0.0;
    for run in session.iscas_runs() {
        let row = fig6(&run);
        println!(
            "{:<8} {:>8.1} {:>8.1} {:>8.1}",
            row.name, row.area_pct, row.power_pct, row.delay_pct
        );
        avg[0] += row.area_pct;
        avg[1] += row.power_pct;
        avg[2] += row.delay_pct;
        n += 1.0;
    }
    let q = quotes::ppa();
    println!(
        "{:<8} {:>8.1} {:>8.1} {:>8.1}   (paper: 0 area, {:.1} power, {:.1} delay; [8] is higher on all three)",
        "Average",
        avg[0] / n,
        avg[1] / n,
        avg[2] / n,
        q.iscas_power_pct,
        q.iscas_delay_pct
    );
}

/// An artifact runner: prints one table/figure from a session.
pub type ArtifactFn = fn(&Session);

/// Which bundles an artifact pulls through its [`Session`]. Declared
/// next to each runner registration so the session's reserve/release
/// accounting ([`Session::reserve_for_artifacts`]) cannot drift from
/// what the runner actually fetches: an undercounted reservation would
/// silently rebuild bundles mid-run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BundleUses {
    /// Calls [`Session::superblue_runs`] (all selected superblue).
    pub superblue_runs: bool,
    /// Calls [`Session::superblue18`] only.
    pub superblue18: bool,
    /// Calls [`Session::iscas_runs`] directly.
    pub iscas_runs: bool,
    /// Consumes [`Session::security_rows`] (one shared `iscas_runs`
    /// fetch for however many such artifacts are selected).
    pub security_rows: bool,
}

const SUPERBLUE: BundleUses = BundleUses {
    superblue_runs: true,
    superblue18: false,
    iscas_runs: false,
    security_rows: false,
};
const SECURITY: BundleUses = BundleUses {
    superblue_runs: false,
    superblue18: false,
    iscas_runs: false,
    security_rows: true,
};

/// Every artifact `smctl run` accepts, in canonical order:
/// `(name, runner, bundle uses)`.
pub const ARTIFACTS: [(&str, ArtifactFn, BundleUses); 9] = [
    ("table1", run_table1, SUPERBLUE),
    ("table2", run_table2, SUPERBLUE),
    ("table3", run_table3, SUPERBLUE),
    ("table4", run_table4, SECURITY),
    ("table5", run_table5, SECURITY),
    ("table6", run_table6, SUPERBLUE),
    (
        "fig4",
        run_fig4,
        BundleUses {
            superblue_runs: false,
            superblue18: true,
            iscas_runs: false,
            security_rows: false,
        },
    ),
    ("fig5", run_fig5, SUPERBLUE),
    (
        "fig6",
        run_fig6,
        BundleUses {
            superblue_runs: false,
            superblue18: false,
            iscas_runs: true,
            security_rows: false,
        },
    ),
];

/// Looks up an artifact runner by name.
pub fn artifact_by_name(name: &str) -> Option<ArtifactFn> {
    ARTIFACTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, f, _)| f)
}

/// Looks up an artifact's declared bundle uses by name.
pub fn artifact_uses(name: &str) -> Option<BundleUses> {
    ARTIFACTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, _, u)| u)
}
