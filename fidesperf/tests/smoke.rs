//! A short traced run of every workload: each must pass its whole
//! correctness gate and report every metric of both catalogues.

use fidesperf::report::END_TO_END;
use fidesperf::{run, Options, WORKLOADS};

#[test]
fn every_workload_passes_its_checks_in_a_short_traced_run() {
    for workload in WORKLOADS {
        let outcome = run(&Options {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1.0,
            trace: true,
        });
        assert!(
            outcome.checks.all_passed(),
            "{workload}: failed checks {:?}",
            outcome.checks.failed()
        );
        assert!(outcome.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(outcome.failed, 0, "{workload}: operations failed");
        for (name, _) in END_TO_END {
            let value = outcome.e2e.get(name).copied().unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
        for name in measured_layers(workload) {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            assert!(
                value > 0.0,
                "{workload}: layer {name} = {value} in {:?}",
                outcome.layers
            );
        }
        assert!(
            !outcome.spans.is_empty(),
            "{workload}: traced run kept no spans"
        );
    }
}

/// Per-layer metrics each workload must measure (the rest of the
/// catalogue may read 0 where a layer does no work).
fn measured_layers(workload: &str) -> Vec<&'static str> {
    let mut names = vec![
        "cpu.total_ms_per_op",
        "cpu.busy_pct",
        "trace.untraced_txns_per_s",
        "trace.traced_txns_per_s",
    ];
    names.extend(match workload {
        "read_verified" => &[
            "client.read_ms",
            "read.verify_us_per_key",
            "read.registry_hit_pct",
            "net.msgs_per_txn",
            "cpu.server_ms_per_op",
        ][..],
        "audit_replay" => &[
            "audit.select_ms",
            "audit.replay_ms",
            "recover.p50_ms",
            "recover.wal_read_ms",
            "recover.verify_ms",
        ][..],
        _ => &[
            "client.exec_ms",
            "client.outcome_wait_ms",
            "client.verify_us_per_outcome",
            "commit.round_ms",
            "commit.stage.batch_form_ms",
            "commit.stage.occ_validate_ms",
            "commit.stage.merkle_update_ms",
            "commit.stage.cosi_assemble_ms",
            "commit.stage.wal_fsync_ms",
            "commit.stage.outcome_send_ms",
            "commit.txns_per_round",
            "store.nodes_rehashed_per_txn",
            "net.msgs_per_txn",
            "wal.fsync_us",
            "cpu.server_ms_per_op",
            "cpu.client_ms_per_op",
        ][..],
    });
    names
}
