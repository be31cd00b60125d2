//! The `eclat` binary's exit status on input it refuses: an error on
//! stderr and exit code 2, never a panic (exit 101) and never a silent
//! success.

use std::process::{Command, Output};

fn eclat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eclat"))
        .args(args)
        .output()
        .expect("spawn eclat")
}

fn assert_exit_2(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn serve_load_of_an_empty_itemset_exits_2() {
    // A correctly checksummed 56-byte v2 results snapshot listing one
    // itemset of length 0 (support 5, 10 transactions) and no rules.
    let mut frequent = mining_types::FrequentSet::new();
    frequent.insert(mining_types::Itemset::empty(), 5);
    let snap = dbstore::binfmt::ResultsSnapshot {
        num_transactions: 10,
        frequent,
        rules: Vec::new(),
        generation: 1,
    };
    let mut bytes = Vec::new();
    dbstore::binfmt::write_results(&snap, &mut bytes).unwrap();
    assert_eq!(bytes.len(), 56);
    let path = std::env::temp_dir().join(format!("eclat-empty-itemset-{}.ecr", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let out = eclat(&[
        "serve",
        "--load",
        path.to_str().unwrap(),
        "--port",
        "0",
        "--serve-secs",
        "0",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_exit_2(&out, "itemset is empty");
}

#[test]
fn unknown_flags_exit_2() {
    let out = eclat(&[
        "rules",
        "--input",
        "data.ech",
        "--support",
        "1",
        "--confidense",
        "0.9",
    ]);
    assert_exit_2(&out, "unknown flag --confidense");
    let out = eclat(&["serve", "--load", "snap.ecr", "--shards", "4"]);
    assert_exit_2(&out, "unknown flag --shards");
}
