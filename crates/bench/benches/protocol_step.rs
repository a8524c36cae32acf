//! Criterion bench: full world rounds for SF, SSF and the baselines —
//! the end-to-end cost the experiment sweeps pay per simulated round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_baselines::majority::HMajority;
use np_baselines::voter::ZealotVoter;
use np_engine::channel::ChannelKind;
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

/// One `World::step` of `proto` in benchmark group `group`, on `threads`
/// workers (`None`: the world's default).
fn bench_world_step<P: ColumnarProtocol>(
    c: &mut Criterion,
    group: &str,
    label: &str,
    proto: &P,
    config: PopulationConfig,
    delta: f64,
    threads: Option<usize>,
) {
    let noise = NoiseMatrix::uniform(proto.alphabet_size(), delta).unwrap();
    let mut group = c.benchmark_group(group);
    group.throughput(Throughput::Elements(config.n() as u64));
    group.bench_with_input(BenchmarkId::new(label, config.n()), &(), |b, _| {
        let mut world = World::new(proto, config, &noise, ChannelKind::Aggregated, 7).unwrap();
        if let Some(threads) = threads {
            world.set_threads(threads);
        }
        b.iter(|| {
            world.step();
            world.round()
        })
    });
    group.finish();
}

fn bench_protocols(c: &mut Criterion) {
    for &n in &[1024usize, 4096] {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let sf = SourceFilter::new(SfParams::derive(&config, 0.2, 1.0).unwrap());
        let ssf = SelfStabilizingSourceFilter::new(SsfParams::derive(&config, 0.1, 4.0).unwrap());
        let group = "world_step";
        bench_world_step(c, group, "sf", &sf, config, 0.2, None);
        bench_world_step(c, group, "ssf", &ssf, config, 0.1, None);
        bench_world_step(c, group, "voter", &ZealotVoter, config, 0.2, None);
        bench_world_step(c, group, "majority", &HMajority, config, 0.2, None);
    }
}

/// One `World::step` at 1 vs 4 worker threads — the speedup the
/// per-agent-stream design buys on large populations. Trajectories are
/// identical at every thread count, so the variants measure the same work,
/// only scheduled differently.
fn bench_chunked_scaling(c: &mut Criterion) {
    for &n in &[10_000usize, 100_000] {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let sf = SourceFilter::new(SfParams::derive(&config, 0.2, 1.0).unwrap());
        let ssf = SelfStabilizingSourceFilter::new(SsfParams::derive(&config, 0.1, 4.0).unwrap());
        let group = "world_step_threads";
        for threads in [1, 4] {
            let (sf_label, ssf_label) = (format!("sf_t{threads}"), format!("ssf_t{threads}"));
            bench_world_step(c, group, &sf_label, &sf, config, 0.2, Some(threads));
            bench_world_step(c, group, &ssf_label, &ssf, config, 0.1, Some(threads));
        }
    }
}

fn bench_push_world(c: &mut Criterion) {
    use np_baselines::push_spreading::{PushSpreading, PushSpreadingParams};
    use np_engine::push::PushWorld;
    let mut group = c.benchmark_group("push_world_step");
    for &n in &[1024usize, 4096] {
        let params = PushSpreadingParams::derive(n, 1, 0.1);
        let config = PopulationConfig::new(n, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("push_spreading", n), &(), |b, _| {
            let mut world =
                PushWorld::new(&PushSpreading::new(params), config, &noise, 11).unwrap();
            b.iter(|| {
                world.step();
                world.round()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_protocols,
    bench_chunked_scaling,
    bench_push_world
);
criterion_main!(benches);
