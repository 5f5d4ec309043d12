//! E12 — business-rule evaluation: externalized rule functions vs.
//! equivalent inlined guard expressions, and scaling in the number of
//! partners.

use b2b_document::normalized::sample_po;
use b2b_rules::approval::{check_need_for_approval, ApprovalThreshold};
use b2b_rules::{Expr, RuleContext};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn thresholds(partners: usize) -> Vec<ApprovalThreshold> {
    (0..partners)
        .flat_map(|k| {
            let tp = format!("TP{}", k + 1);
            [
                ApprovalThreshold::new("SAP", &tp, 10_000 + 5_000 * k as i64),
                ApprovalThreshold::new("Oracle", &tp, 10_000 + 5_000 * k as i64),
            ]
        })
        .collect()
}

fn bench_rule_function(c: &mut Criterion) {
    let mut group = c.benchmark_group("externalized-rules");
    let doc = sample_po("r", 42_000);
    for partners in [2usize, 8, 32] {
        let f = check_need_for_approval(&thresholds(partners)).unwrap();
        // Worst case: the LAST partner matches (full scan).
        let last = format!("TP{partners}");
        group.bench_with_input(
            BenchmarkId::new("last-partner-match", partners),
            &f,
            |bencher, f| {
                bencher
                    .iter(|| black_box(f.invoke(&RuleContext::new(&last, "Oracle", &doc)).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_inlined_guard(c: &mut Criterion) {
    // The naive alternative: one giant disjunction evaluated per check.
    let mut group = c.benchmark_group("inlined-guard");
    let doc = sample_po("r", 42_000);
    for partners in [2usize, 8, 32] {
        let guard: String = (0..partners)
            .map(|k| {
                format!(
                    "(source == \"TP{}\" and document.amount >= {})",
                    k + 1,
                    10_000 + 5_000 * k as i64
                )
            })
            .collect::<Vec<_>>()
            .join(" or ");
        let expr = Expr::parse(&guard).unwrap();
        let last = format!("TP{partners}");
        group.bench_with_input(
            BenchmarkId::new("disjunction", partners),
            &expr,
            |bencher, expr| {
                bencher.iter(|| {
                    black_box(expr.eval_bool(&RuleContext::new(&last, "Oracle", &doc)).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse-paper-rule", |bencher| {
        bencher.iter(|| {
            black_box(
                Expr::parse("target == \"SAP\" and source == \"TP1\" and document.amount >= 55000")
                    .unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_rule_function, bench_inlined_guard, bench_parse);
criterion_main!(benches);
