//! Determinism of the `campaign` binary on its two standing grids.
//!
//! The first test spawns the real binary twice over the **default
//! 108-scenario paper grid** and compares every produced byte: the
//! aggregate report and the per-scenario outcome cache. It also pins the
//! default grid's fingerprint — the cache file name is part of the on-disk
//! contract, and an accidental grid change would silently orphan every
//! existing cache.
//!
//! The second test is the stale-knowledge determinism smoke: a genuinely
//! gossiping grid (nonzero refresh period, so rows age and swaps can miss)
//! must be byte-identical cold, warm from its own outcome cache, and
//! recombined from a 2-way shard split.

use std::fs;
use std::path::Path;
use std::process::Command;

fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

/// The default paper grid's fingerprint (`ScenarioGrid::fingerprint` over
/// every axis value, master seed, and replicate count).
const DEFAULT_GRID_FINGERPRINT: &str = "3d0ceedd6e2ff513";

fn run_default_grid(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let out = dir.join("report.jsonl");
    let cache = dir.join("cache");
    let status = Command::new(campaign_bin())
        .arg("--out")
        .arg(&out)
        .arg("--cache-dir")
        .arg(&cache)
        .status()
        .expect("spawn campaign binary");
    assert!(status.success(), "campaign run failed");
    let outcomes = cache.join(format!("outcomes-{DEFAULT_GRID_FINGERPRINT}.jsonl"));
    assert!(
        outcomes.is_file(),
        "default grid fingerprint drifted: expected {}, cache dir holds {:?}",
        outcomes.display(),
        fs::read_dir(&cache)
            .map(|d| d
                .filter_map(|e| e.ok().map(|e| e.file_name()))
                .collect::<Vec<_>>())
            .unwrap_or_default()
    );
    (
        fs::read(&out).expect("read aggregate report"),
        fs::read(&outcomes).expect("read outcome cache"),
    )
}

#[test]
fn default_grid_is_byte_identical_across_runs() {
    let base = std::env::temp_dir().join(format!("qnet-default-grid-{}", std::process::id()));
    let first_dir = base.join("first");
    let second_dir = base.join("second");
    fs::create_dir_all(&first_dir).unwrap();
    fs::create_dir_all(&second_dir).unwrap();

    let (first_report, first_outcomes) = run_default_grid(&first_dir);
    let (second_report, second_outcomes) = run_default_grid(&second_dir);

    // 108 outcome lines (the full default grid), 31 aggregate lines — and
    // no staleness columns anywhere: global rows never go stale.
    assert_eq!(first_outcomes.iter().filter(|&&b| b == b'\n').count(), 108);
    assert_eq!(first_report.iter().filter(|&&b| b == b'\n').count(), 31);
    let cache_text = String::from_utf8(first_outcomes.clone()).unwrap();
    assert!(
        !cache_text.contains("stale_row_age") && !cache_text.contains("missed_swaps"),
        "global-knowledge rows must not grow staleness columns"
    );
    assert!(
        first_report == second_report,
        "aggregate report differs between two default runs"
    );
    assert!(
        first_outcomes == second_outcomes,
        "outcome cache differs between two default runs"
    );

    fs::remove_dir_all(&base).ok();
}

/// The gossip flags for the staleness smoke: small enough to run in
/// seconds, stale enough (0.5 s refresh over a 7-cycle) that rows age
/// and the staleness columns actually appear.
const GOSSIP_FLAGS: [&str; 12] = [
    "--topologies",
    "cycle:7",
    "--modes",
    "oblivious,hybrid",
    "--knowledge",
    "gossip:2:0.5",
    "--replicates",
    "2",
    "--requests",
    "6",
    "--horizon",
    "1000",
];

fn run_gossip(dir: &Path, cache: Option<&Path>, shard: Option<&str>) -> Vec<u8> {
    let out = dir.join(match shard {
        Some(s) => format!("report-{}.jsonl", s.replace('/', "-")),
        None => "report.jsonl".to_string(),
    });
    let mut cmd = Command::new(campaign_bin());
    cmd.args(GOSSIP_FLAGS).arg("--out").arg(&out);
    if let Some(cache) = cache {
        cmd.arg("--cache-dir").arg(cache);
    }
    if let Some(shard) = shard {
        cmd.arg("--shard").arg(shard);
    }
    let status = cmd.status().expect("spawn campaign binary");
    assert!(status.success(), "gossip campaign run failed");
    fs::read(&out).expect("read gossip report")
}

#[test]
fn gossip_grid_is_deterministic_cold_warm_and_sharded() {
    let base = std::env::temp_dir().join(format!("qnet-knowledge-gossip-{}", std::process::id()));
    fs::create_dir_all(&base).unwrap();
    let cache = base.join("cache");

    // Cold run fills the outcome cache; the warm rerun replays it.
    let cold = run_gossip(&base, Some(&cache), None);
    let warm = run_gossip(&base, Some(&cache), None);
    assert!(cold == warm, "warm cache replay changed the gossip report");

    // A 2-way shard split (no cache, so the shard path genuinely runs)
    // must merge back to the same bytes.
    let shard0 = base.join("shard-0");
    let shard1 = base.join("shard-1");
    fs::create_dir_all(&shard0).unwrap();
    fs::create_dir_all(&shard1).unwrap();
    run_gossip(&shard0, None, Some("0/2"));
    run_gossip(&shard1, None, Some("1/2"));
    let merged = base.join("merged.jsonl");
    let status = Command::new(campaign_bin())
        .arg("merge")
        .arg(shard0.join("report-0-2.jsonl"))
        .arg(shard1.join("report-1-2.jsonl"))
        .arg("--out")
        .arg(&merged)
        .status()
        .expect("spawn campaign merge");
    assert!(status.success(), "campaign merge failed");
    let merged_bytes = fs::read(&merged).expect("read merged report");
    assert!(
        cold == merged_bytes,
        "2-way shard merge differs from the single-process gossip report"
    );

    // The stale plane really bit: staleness columns must be present.
    let text = String::from_utf8(cold).unwrap();
    assert!(
        text.contains("stale_row_age_mean_s"),
        "gossip report never aged a row — the smoke is not exercising staleness"
    );

    fs::remove_dir_all(&base).ok();
}
