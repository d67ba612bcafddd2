//! Pins the static analyzer's output on the five small-FIR variants.
//!
//! Each `StaticAnalysis` of the paper variants on the 24x24 device at
//! placement seed 1 is reduced to one FNV-1a digest over its public
//! accessors only: `voted_tmr`, `design_related`, every verdict, the
//! observable bits, the maskable-domain tags, and `verdict_for_fault` over a
//! fixed set of 2- and 3-bit clusters. The clusters mix bits of every
//! distinct verdict, so the merged verdicts read the exact per-bit domain
//! masks and effect classes the analysis keeps privately, including the
//! redundant domains a `SingleDomain(Voter)` verdict hides.
//!
//! The digests were measured with the allocating per-bit analyzer that
//! derived every verdict from `classify_bit`. An analyzer change meant to
//! keep its results must pass this file unedited; a change that moves a
//! verdict must re-pin deliberately. The same test also checks every bit of
//! one TMR design against that allocating derivation directly.

use std::collections::BTreeMap;
use tmr_fpga::analyze::{StaticAnalysis, Verdict};
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::faultsim::classify_bit;
use tmr_fpga::flow::Sweep;
use tmr_fpga::netlist::Domain;
use tmr_fpga::tmr::par_map;

/// `(variant, analysis digest)` of the small FIR on the 24x24 device.
const PINS: [(&str, u64); 5] = [
    ("standard", 0x698f_c480_3cb1_22f9),
    ("tmr_p1", 0x664c_7c24_fc5d_5b9b),
    ("tmr_p2", 0x8dd0_135f_fef0_02fc),
    ("tmr_p3", 0x802b_994c_0e56_b6de),
    ("tmr_p3_nv", 0xbdc1_103a_7729_9859),
];

/// Representative bits kept per distinct verdict, evenly spread over the
/// bits carrying it.
const REPRESENTATIVES: usize = 4;

/// Stride of the frame-adjacent clusters `[b, b+1]` and `[b, b+1, b+2]`.
const ADJACENT_STRIDE: usize = 89;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    fn domain(&mut self, domain: Domain) {
        self.bytes(&[domain as u8]);
    }

    fn verdict(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Benign => self.bytes(&[0]),
            Verdict::SingleDomain(domain) => {
                self.bytes(&[1]);
                self.domain(domain);
            }
            Verdict::DomainCrossing {
                domains: (a, b),
                class,
            } => {
                self.bytes(&[2]);
                self.domain(a);
                self.domain(b);
                self.bytes(&[class as u8]);
            }
        }
    }
}

/// The fixed cluster set: every pair and triple of the per-verdict
/// representatives, then frame-adjacent pairs and triples along the whole
/// configuration memory.
fn clusters(analysis: &StaticAnalysis) -> Vec<Vec<usize>> {
    let mut by_verdict: BTreeMap<Verdict, Vec<usize>> = BTreeMap::new();
    for bit in 0..analysis.bit_count() {
        by_verdict
            .entry(analysis.verdict(bit))
            .or_default()
            .push(bit);
    }
    let mut representatives = Vec::new();
    for bits in by_verdict.values() {
        let keep = REPRESENTATIVES.min(bits.len());
        for index in 0..keep {
            let at = if keep == 1 {
                0
            } else {
                index * (bits.len() - 1) / (keep - 1)
            };
            representatives.push(bits[at]);
        }
    }
    let mut clusters = Vec::new();
    for (i, &a) in representatives.iter().enumerate() {
        for (j, &b) in representatives.iter().enumerate().skip(i + 1) {
            clusters.push(vec![a, b]);
            for &c in &representatives[j + 1..] {
                clusters.push(vec![a, b, c]);
            }
        }
    }
    let bits = analysis.bit_count();
    for bit in (0..bits.saturating_sub(2)).step_by(ADJACENT_STRIDE) {
        clusters.push(vec![bit, bit + 1]);
        clusters.push(vec![bit, bit + 1, bit + 2]);
    }
    clusters
}

fn digest(analysis: &StaticAnalysis) -> u64 {
    let mut hash = Fnv::new();
    hash.bytes(&[u8::from(analysis.voted_tmr())]);
    hash.word(analysis.design_related());
    hash.word(analysis.bit_count());
    for bit in 0..analysis.bit_count() {
        hash.verdict(analysis.verdict(bit));
    }
    hash.word(analysis.observable_bits().len());
    for &bit in analysis.observable_bits() {
        hash.word(bit);
    }
    let tags: Vec<(usize, Domain)> = analysis.maskable_domains().collect();
    hash.word(tags.len());
    for (bit, domain) in tags {
        hash.word(bit);
        hash.domain(domain);
    }
    let clusters = clusters(analysis);
    hash.word(clusters.len());
    for cluster in &clusters {
        hash.verdict(analysis.verdict_for_fault(cluster));
    }
    hash.0
}

#[test]
fn static_analyses_of_the_paper_variants_are_pinned() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .seed(1)
        .flows()
        .expect("the paper variants implement on the device");
    let analyzed = par_map(flows, |(name, flow)| {
        let routed = flow.routed().expect("implementation");
        let analyzed = flow.analyzed().expect("analysis");
        (name, routed, analyzed)
    });

    // Every bit of one TMR design against the allocating derivation.
    let (_, routed, p2) = analyzed
        .iter()
        .find(|(name, _, _)| name == "tmr_p2")
        .expect("the paper sweep has tmr_p2");
    let analysis = p2.analysis();
    assert!(analysis.voted_tmr());
    for bit in 0..analysis.bit_count() {
        let effect = classify_bit(&device, routed.design(), bit);
        let expected =
            Verdict::from_affected_domains(&effect.affected_domains(routed.design()), effect.class);
        assert_eq!(analysis.verdict(bit), expected, "tmr_p2 bit {bit}");
    }

    let measured: Vec<(String, u64)> = analyzed
        .iter()
        .map(|(name, _, analyzed)| (name.clone(), digest(analyzed.analysis())))
        .collect();
    let expected: Vec<(String, u64)> = PINS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(
        measured, expected,
        "a static analysis changed: (variant, analysis digest)"
    );
}
