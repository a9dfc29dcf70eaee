//! Criterion micro-benchmarks for path-state forking: copy-on-write
//! forks must stay flat as the forked stack deepens, while the eager
//! deep clone grows linearly with depth. Run with
//! `cargo bench -p sigrec-bench --bench fork_cost`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sigrec_core::expr::{ExprArena, ExprId};
use sigrec_core::CowStack;
use std::hint::black_box;

/// A stack of `depth` distinct expression ids, as a forked path would
/// hold after deep concrete execution.
fn deep_stack(depth: usize) -> CowStack<ExprId> {
    let mut arena = ExprArena::new();
    let mut stack = CowStack::new();
    for i in 0..depth as u64 {
        stack.push(arena.c64(i));
    }
    stack
}

fn bench_fork(c: &mut Criterion) {
    let depths = [256usize, 4_096, 65_536];

    let mut group = c.benchmark_group("fork_cow");
    for &depth in &depths {
        // Pre-forked once so the benchmarked fork sees a frozen prefix +
        // empty tail — the steady state inside a fork-heavy exploration.
        let mut stack = deep_stack(depth);
        let _warm = stack.fork();
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| black_box(&mut stack).fork());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fork_eager_clone");
    for &depth in &depths {
        let stack = deep_stack(depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| black_box(&stack).deep_clone());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_fork
}
criterion_main!(benches);
