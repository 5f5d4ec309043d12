//! E9 — reliable-messaging cost: delivering payloads over the RNIF-style
//! layer at increasing loss rates, plus the VAN batching alternative.

use b2b_document::FormatId;
use b2b_network::{
    Bytes, EndpointId, Envelope, FaultConfig, MessageId, ReliableConfig, ReliableEndpoint,
    SimNetwork, SimTime, Van,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const MESSAGES: usize = 50;

fn run_reliable(loss: f64, seed: u64) -> usize {
    let mut net = SimNetwork::new(
        FaultConfig { loss, duplicate: loss / 2.0, ..FaultConfig::flaky(loss) },
        seed,
    );
    let config = ReliableConfig::fixed(200, 10);
    let mut a = ReliableEndpoint::new(EndpointId::new("a"), config.clone(), &mut net).unwrap();
    let mut b = ReliableEndpoint::new(EndpointId::new("b"), config, &mut net).unwrap();
    let to = b.id().clone();
    for i in 0..MESSAGES {
        a.send(&mut net, &to, FormatId::EDI_X12, Bytes::from(format!("po-{i}"))).unwrap();
    }
    let mut delivered = 0;
    for _ in 0..2000 {
        net.advance(10);
        a.tick(&mut net).unwrap();
        delivered += b.receive(&mut net).unwrap().len();
        a.receive(&mut net).unwrap();
        if delivered >= MESSAGES {
            break;
        }
    }
    delivered
}

fn bench_reliable(c: &mut Criterion) {
    let mut group = c.benchmark_group("reliable-messaging");
    group.throughput(Throughput::Elements(MESSAGES as u64));
    for loss in [0.0, 0.2, 0.5] {
        group.bench_with_input(
            BenchmarkId::new("loss", format!("{loss:.1}")),
            &loss,
            |bencher, &loss| bencher.iter(|| black_box(run_reliable(loss, 7))),
        );
    }
    group.finish();
}

fn bench_van(c: &mut Criterion) {
    c.bench_function("van-deposit-pickup-50", |bencher| {
        bencher.iter(|| {
            let mut van = Van::new(500);
            let to = EndpointId::new("partner");
            van.subscribe(to.clone()).unwrap();
            for i in 0..MESSAGES as u64 {
                let t = SimTime::from_millis(i * 37);
                let env = Envelope::payload_with_id(
                    MessageId::from_raw(i),
                    EndpointId::new("acme"),
                    to.clone(),
                    FormatId::EDI_X12,
                    Bytes::from_static(b"ISA*"),
                    t,
                );
                van.deposit(env, t).unwrap();
            }
            black_box(van.pickup(&to, SimTime::from_millis(1_000_000)).unwrap().len())
        })
    });
}

criterion_group!(benches, bench_reliable, bench_van);
criterion_main!(benches);
