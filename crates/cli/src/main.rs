//! `noisy-pull` — command-line interface for the noisy PULL reproduction.
//!
//! ```text
//! noisy-pull run sf --n 1024 --delta 0.2 --seed 42
//! noisy-pull run ssf --n 1024 --delta 0.1 --adversary poisoned-memory
//! noisy-pull run baseline voter --n 512 --budget 2000
//! noisy-pull theory --n 65536 --h 1 --delta 0.2
//! noisy-pull reduce --rows "0.9,0.1;0.2,0.8"
//! ```

use np_cli::args::Args;
use np_cli::commands;

const USAGE: &str =
    "noisy-pull — protocols from 'Fast and Robust Information Spreading in the Noisy PULL Model'

USAGE:
    noisy-pull <COMMAND> [FLAGS]

COMMANDS:
    run sf          run Algorithm SF (Source Filter)
    run ssf         run Algorithm SSF (Self-stabilizing Source Filter)
    run baseline X  run a baseline: voter | majority | trusting-copy | mean-estimator | push
    sweep run SPEC  run a checkpointed parameter sweep from a spec file
    cluster         run SF/SSF on the event-driven node runtime (np_net):
                    no global round barrier; nodes exchange PullRequest/
                    PullReply messages over a transport
    theory          evaluate the Theorem 3/4/5 closed-form bounds
    reduce          derive the Theorem 8 artificial-noise matrix
    help            show this message

COMMON FLAGS:
    --n N           population size            (default 1024)
    --h H           sample size / fan-out      (default n)
    --s0 K --s1 K   sources preferring 0 / 1   (default 0 / 1)
    --delta D       uniform noise level        (default 0.2; SSF needs < 0.25)
    --seed S        RNG seed                   (default 42)
    --c1 C          analysis constant          (default 1 for SF, 16 for SSF)
    --exact         use the literal per-sample channel
    --backend B     (sf/ssf) simulation engine: per-agent (default) |
                    mean-field — class-count dynamics, distributionally
                    equivalent under the aggregated channel, scales to
                    n = 10^8; incompatible with --exact, --fault,
                    --restore, --checkpoint, --digest, --adversary
    --threads T     worker threads for the round loop (>= 1; overrides
                    the NOISY_PULL_THREADS environment variable)
    --digest        print a FNV-1a digest of the final outcome (round +
                    opinions) — identical across thread counts
    --trace PATH    write a per-round JSONL trace (correct count, margin,
                    stage occupancy, weak-opinion accuracy) — identical
                    across thread counts
    --metrics-out PATH   write an end-of-run summary JSON (np-run-summary/v1);
                    faulted runs gain a per-event recovery section
    --adversary A   SSF initial corruption: none | all-wrong | poisoned-memory |
                    random-desync | split-brain | fake-consensus
    --fault SPEC    (sf/ssf, repeatable) inject a fault just before round R:
                      R:flip               flip every source's preference
                      R:noise:D            switch to uniform noise level D
                      R:ramp:D:ROUNDS      ramp noise from --delta to D
                      R:sleep:FRAC:ROUNDS  put a FRAC of agents to sleep
                      R:ADVERSARY[:FRAC]   (ssf) re-apply an --adversary
                                           strategy to a FRAC of agents
                    e.g. --fault 40:all-wrong:0.5 --fault 60:ramp:0.2:10
    --budget R      round budget for baselines (default 1000)
    --budget-intervals I   SSF budget in update intervals (default 10)
    --rows \"a,b;c,d\"       reduce: the channel matrix, row-major

SNAPSHOTS (sf/ssf):
    --checkpoint PATH      write an np-snap/v1 snapshot every K rounds
    --checkpoint-every K   snapshot cadence (default 32; needs --checkpoint)
    --restore PATH         resume a run from a snapshot; pass the same
                           flags as the original run (--fault plans are
                           re-attached at the saved cursor)

SWEEPS:
    sweep run SPEC --out DIR [--resume] [--threads T]
                   [--checkpoint-every K] [--stop-after N]
        SPEC is `key = value[, value...]` lines (# comments):
        protocol/n/delta accept comma grids; h, s0, s1, c1, runs, seed,
        budget-intervals, backend are scalars (backend: per-agent |
        mean-field — counts jobs run atomically, without checkpoints).
        Progress lives in DIR/manifest.jsonl
        (np-manifest/v1); finished sweeps aggregate to DIR/report.json
        (np-bench/v1), byte-identical however the sweep was interrupted,
        resumed or threaded. --stop-after N exits after N checkpoint
        writes (the CI kill switch).

CLUSTER:
    cluster [--protocol sf|ssf] [--transport sim|tcp] [--n N] [--h H]
            [--s0 K] [--s1 K] [--delta D] [--seed S] [--c1 C]
            [--budget-intervals I] [--metrics-out PATH]
        sim (default): deterministic simulated-time scheduler — virtual
        clock, byte-identical `cluster digest` per seed. tcp: real
        length-prefixed sockets on 127.0.0.1, one thread per node,
        wall-clock timing (digest not reproducible by design).
        Timing: --tick-us T (round length, default 1000), --latency-us L
        (default 50), --jitter-us J (default 100), --stagger-us B (boot
        spread, default tick), --drop R (per-message drop rate).
        Transport faults: --partition-at ROUND [--partition-split K]
        [--heal-at ROUND] — sever links across {0..K} vs {K..n}, then
        heal; SSF re-converges, measured from the heal point.
        Rejects round-engine flags (--topology, --backend, --fault,
        --restore/--checkpoint) with an explanation.
";

fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv {
        [] => {
            println!("{USAGE}");
            Ok(())
        }
        [cmd, rest @ ..] => {
            let sub = cmd.as_str();
            match sub {
                "help" | "--help" | "-h" => {
                    println!("{USAGE}");
                    Ok(())
                }
                "run" => match rest {
                    [what, flags @ ..] => {
                        let args = Args::parse(flags.iter().cloned()).map_err(|e| e.to_string())?;
                        match what.as_str() {
                            "sf" => commands::run_sf(&args),
                            "ssf" => commands::run_ssf(&args),
                            "baseline" => match args.positional() {
                                [name, ..] => commands::run_baseline(name, &args),
                                [] => Err("run baseline: missing baseline name".into()),
                            },
                            other => {
                                Err(format!("unknown protocol `{other}`; try sf, ssf, baseline"))
                            }
                        }
                    }
                    [] => Err("run: missing protocol (sf | ssf | baseline <name>)".into()),
                },
                "sweep" => match rest {
                    [what, flags @ ..] => {
                        let args = Args::parse(flags.iter().cloned()).map_err(|e| e.to_string())?;
                        match what.as_str() {
                            "run" => commands::sweep_run(&args),
                            other => Err(format!("unknown sweep subcommand `{other}`; try run")),
                        }
                    }
                    [] => Err("sweep: missing subcommand (run SPEC)".into()),
                },
                "cluster" => {
                    let args = Args::parse(rest.iter().cloned()).map_err(|e| e.to_string())?;
                    commands::cluster_cmd(&args)
                }
                "theory" => {
                    let args = Args::parse(rest.iter().cloned()).map_err(|e| e.to_string())?;
                    commands::theory_cmd(&args)
                }
                "reduce" => {
                    let args = Args::parse(rest.iter().cloned()).map_err(|e| e.to_string())?;
                    commands::reduce_cmd(&args)
                }
                other => Err(format!("unknown command `{other}`; see `noisy-pull help`")),
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&argv) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_paths_succeed() {
        dispatch(&v(&[])).unwrap();
        dispatch(&v(&["help"])).unwrap();
        dispatch(&v(&["--help"])).unwrap();
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&v(&["frobnicate"])).is_err());
        assert!(dispatch(&v(&["run"])).is_err());
        assert!(dispatch(&v(&["run", "nope"])).is_err());
        assert!(dispatch(&v(&["run", "baseline"])).is_err());
    }

    #[test]
    fn end_to_end_sf_run() {
        dispatch(&v(&[
            "run", "sf", "--n", "64", "--delta", "0.1", "--seed", "3",
        ]))
        .unwrap();
    }

    #[test]
    fn end_to_end_sf_run_with_threads_and_digest() {
        dispatch(&v(&[
            "run",
            "sf",
            "--n",
            "64",
            "--delta",
            "0.1",
            "--seed",
            "3",
            "--threads",
            "2",
            "--digest",
        ]))
        .unwrap();
    }

    #[test]
    fn end_to_end_faulted_ssf_run() {
        dispatch(&v(&[
            "run",
            "ssf",
            "--n",
            "64",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--fault",
            "20:split-brain:0.5",
            "--fault",
            "40:sleep:0.25:2",
        ]))
        .unwrap();
    }

    #[test]
    fn end_to_end_theory_and_reduce() {
        dispatch(&v(&["theory", "--n", "256"])).unwrap();
        dispatch(&v(&["reduce", "--rows", "0.95,0.05;0.1,0.9"])).unwrap();
    }
}
