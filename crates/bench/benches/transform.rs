//! Transformation and codec throughput: the binding's per-document work
//! (wire parse → transform to normalized → transform to native → encode).

use b2b_document::formats::sample_edi_po;
use b2b_document::normalized::sample_po;
use b2b_document::{FormatId, FormatRegistry};
use b2b_transform::{TransformContext, TransformRegistry};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_transform(c: &mut Criterion) {
    let registry = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
    let normalized = sample_po("t", 12_000);
    let mut group = c.benchmark_group("transform");
    group.throughput(Throughput::Elements(1));
    for target in [
        FormatId::EDI_X12,
        FormatId::ROSETTANET,
        FormatId::OAGIS,
        FormatId::SAP_IDOC,
        FormatId::ORACLE_APPS,
    ] {
        group.bench_with_input(
            BenchmarkId::new("normalized-to", target.as_str()),
            &target,
            |bencher, target| {
                bencher.iter(|| black_box(registry.transform(&normalized, target, &ctx).unwrap()))
            },
        );
    }
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let formats = FormatRegistry::with_builtins();
    let doc = sample_edi_po("4711", 12);
    let wire = formats.encode(&doc).unwrap();
    let mut group = c.benchmark_group("edi-codec");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode-850", |bencher| {
        bencher.iter(|| black_box(formats.encode(&doc).unwrap()))
    });
    group.bench_function("decode-850", |bencher| {
        bencher.iter(|| black_box(formats.decode(&FormatId::EDI_X12, &wire).unwrap()))
    });
    group.finish();
}

fn bench_full_binding_path(c: &mut Criterion) {
    // Wire bytes in EDI → normalized → SAP native: the full inbound leg.
    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
    let wire = formats.encode(&sample_edi_po("4711", 12)).unwrap();
    c.bench_function("binding-inbound-leg", |bencher| {
        bencher.iter(|| {
            let doc = formats.decode(&FormatId::EDI_X12, &wire).unwrap();
            let normalized = transforms.transform(&doc, &FormatId::NORMALIZED, &ctx).unwrap();
            let native = transforms.transform(&normalized, &FormatId::SAP_IDOC, &ctx).unwrap();
            black_box(native)
        })
    });
}

fn bench_dispatch(c: &mut Criterion) {
    // Registry dispatch on the EDI → normalized → EDI round trip: two
    // program lookups and two rule-interpreter passes.
    let ctx = TransformContext::new("ACME", "GADGET", "000000001", "i-1");
    let po = sample_edi_po("4711", 7);
    let transforms = TransformRegistry::with_builtins();
    let mut group = c.benchmark_group("dispatch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("edi-roundtrip", |bencher| {
        bencher.iter(|| {
            let norm = transforms.transform(&po, &FormatId::NORMALIZED, &ctx).unwrap();
            black_box(transforms.transform(&norm, &FormatId::EDI_X12, &ctx).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transform, bench_codecs, bench_full_binding_path, bench_dispatch);
criterion_main!(benches);
