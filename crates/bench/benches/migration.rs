//! E2 ablation — instance migration cost, and the Section 2.1 trade-off:
//! carrying the workflow type inside the instance (bigger snapshots, no
//! type lookup) vs. looking the type up in the database (small snapshots,
//! type must be migrated separately).

use b2b_core::baseline::distributed::run_distributed_roundtrip;
use b2b_wfms::{Engine, EngineId, Federation, StepDef, Variable, WorkflowBuilder, WorkflowTypeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

fn migration_world(carry: bool, steps: usize) -> Federation {
    let mut fed = Federation::new();
    let mut alpha = Engine::new(EngineId::new("alpha"));
    alpha.set_carry_types(carry);
    let mut builder = WorkflowBuilder::new("mig");
    for i in 0..steps {
        builder = builder.step(StepDef::noop(&format!("s{i}")));
        if i > 0 {
            builder = builder.edge(&format!("s{}", i - 1), &format!("s{i}"));
        }
    }
    alpha.deploy(builder.build().unwrap());
    fed.add_engine(alpha);
    fed.add_engine(Engine::new(EngineId::new("beta")));
    fed
}

fn bench_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("instance-migration");
    for (label, carry) in [("type-lookup", false), ("carry-type", true)] {
        for steps in [10usize, 100] {
            group.bench_with_input(
                BenchmarkId::new(label, steps),
                &(carry, steps),
                |bencher, &(carry, steps)| {
                    bencher.iter_batched(
                        || {
                            let mut fed = migration_world(carry, steps);
                            let (a, _) = (EngineId::new("alpha"), EngineId::new("beta"));
                            let mut vars = BTreeMap::new();
                            vars.insert(
                                "po".to_string(),
                                Variable::Document(
                                    b2b_document::normalized::sample_po("m", 10).into(),
                                ),
                            );
                            let id = fed
                                .engine_mut(&a)
                                .unwrap()
                                .create_instance(&WorkflowTypeId::new("mig"), vars, "s", "t")
                                .unwrap();
                            (fed, id)
                        },
                        |(mut fed, id)| {
                            let (a, b) = (EngineId::new("alpha"), EngineId::new("beta"));
                            black_box(fed.migrate_instance(&a, &b, id).unwrap())
                        },
                        criterion::BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn bench_distributed_roundtrip(c: &mut Criterion) {
    c.bench_function("distributed-roundtrip-with-migration", |bencher| {
        bencher.iter(|| black_box(run_distributed_roundtrip(12_000).unwrap()))
    });
}

criterion_group!(benches, bench_migration, bench_distributed_roundtrip);
criterion_main!(benches);
