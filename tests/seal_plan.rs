//! Every sealed image is pinned, and planning once per source changes
//! none of them.
//!
//! The FNV-64 of each image's `SOFI1` bytes, symbols and report, for
//! every `Scale::Test` and `Scale::Bench` kernel under two key sets and
//! two nonces, was recorded before installation was split into a
//! key-free [`SealPlan`] and its keyed seal. [`Transformer::transform`],
//! one plan sealed four ways, and an [`ImageCache`] plan hit must all
//! reproduce those values. The parsed [`Module`](sofia::isa::asm::Module)
//! of every kernel is pinned the same way, so a faster parser cannot
//! change what it parses. A property test checks that the cache holds
//! one plan per distinct source and one image per distinct
//! `(keys, source)` pair.

use std::collections::HashSet;

use proptest::prelude::*;
use sofia::crypto::{KeySet, Nonce};
use sofia::isa::asm;
use sofia::transform::cache::ImageCache;
use sofia::transform::decode::fnv64;
use sofia::transform::{BlockFormat, SealPlan, SecureImage, Transformer};
use sofia_workloads::{suite, Scale};

/// The two key sets and two nonces every kernel is pinned under, in the
/// order of a pin's columns: `(keys, nonce)` for keys A then B, each
/// with nonce 1 (the cache's) then `0xBEEF`.
fn sealings() -> [(KeySet, Nonce); 4] {
    let (a, b) = (KeySet::from_seed(0x5EA1), KeySet::from_seed(0x0DD5));
    let (n1, n2) = (Nonce::new(1), Nonce::new(0xBEEF));
    [(a.clone(), n1), (a, n2), (b.clone(), n1), (b, n2)]
}

/// FNV-64 of the image's `SOFI1` bytes, then each symbol (name, NUL,
/// little-endian address) in order, then each report field as a
/// little-endian `u64`.
fn digest(image: &SecureImage) -> u64 {
    let mut bytes = image.to_bytes();
    for (name, addr) in &image.symbols {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&addr.to_le_bytes());
    }
    let r = &image.report;
    for v in [
        r.source_instructions,
        r.lowered_instructions,
        r.blocks,
        r.exec_blocks,
        r.mux_blocks,
        r.tree_blocks,
        r.ft_trampolines,
        r.landing_pads,
        r.pad_nops,
        r.text_bytes_in,
        r.text_bytes_out,
    ] {
        bytes.extend_from_slice(&(v as u64).to_le_bytes());
    }
    fnv64(&bytes)
}

/// `digest` of each kernel's image under each of [`sealings`].
const IMAGE_PINS: &[(Scale, &str, [u64; 4])] = &[
    (
        Scale::Test,
        "adpcm",
        [
            0x4b6a9aef74be1c2c,
            0x23a2050abdda26d2,
            0xa41b3727bb9918ec,
            0xce9f05cdffbc3ffd,
        ],
    ),
    (
        Scale::Test,
        "fib",
        [
            0xd4ad93236ba213c2,
            0x6cf94bb9bbe3eb02,
            0xeaace5495dc5eea3,
            0x84068e26acea079c,
        ],
    ),
    (
        Scale::Test,
        "crc32",
        [
            0xbfd78387c6c5ebab,
            0xbbf5f590c58856d3,
            0x1e9ffd25a1e26ea4,
            0xd103df18c49cc5cd,
        ],
    ),
    (
        Scale::Test,
        "bubble_sort",
        [
            0xf78dbe553c37d7a3,
            0x1fe70d8ea1a57966,
            0xe5b3889e74e870bf,
            0xff5a43addbffe7cc,
        ],
    ),
    (
        Scale::Test,
        "fir",
        [
            0xa7554899f5c2914a,
            0x0e7e79c9fd4fb323,
            0x44fc4328f9fc6749,
            0x23869210bec86dc5,
        ],
    ),
    (
        Scale::Test,
        "matmul",
        [
            0xb45fa81cf7ddd3d5,
            0xfe8aa162e96886e7,
            0x6e910fea1300cae7,
            0x913f247da8ae32a0,
        ],
    ),
    (
        Scale::Test,
        "memcpy",
        [
            0x17819aad13a18184,
            0xbb03fd9c445a452c,
            0xce87338c2b3c68fb,
            0x5fb1b70f2c704eb1,
        ],
    ),
    (
        Scale::Test,
        "dispatch",
        [
            0x49ce838ffb8848c6,
            0x0ef65d2be02e1344,
            0x2760c566f3371d9f,
            0xe7a7aa709bda9c64,
        ],
    ),
    (
        Scale::Test,
        "quicksort",
        [
            0x6086076f4a5e986a,
            0x374a1e9ca64a1911,
            0xdc70bac2530359b2,
            0x6b37153fd0667255,
        ],
    ),
    (
        Scale::Test,
        "strsearch",
        [
            0x2e14512149d41bf6,
            0x61fefae0abab6d98,
            0xd8c3679ff4ba69be,
            0x3f9f042f79be5fa3,
        ],
    ),
    (
        Scale::Bench,
        "adpcm",
        [
            0x6911c3d9567e9626,
            0x4e465e2701c0b980,
            0x90c1fe87dd77a6fb,
            0x9d0d218f6bfdb20e,
        ],
    ),
    (
        Scale::Bench,
        "fib",
        [
            0xfc9fe8fe73594a97,
            0x459f47260c185273,
            0x4cca3043654b03fc,
            0x76f6f69a0a812aab,
        ],
    ),
    (
        Scale::Bench,
        "crc32",
        [
            0x94d443b182e3898c,
            0x7a8787545d12c5e0,
            0x816e7e33c92ea5a9,
            0x7501d7a5a4a8d264,
        ],
    ),
    (
        Scale::Bench,
        "bubble_sort",
        [
            0xf0c0de597406c2a7,
            0xa70093e32d8e1f0e,
            0xdb2bcde551ce7698,
            0xbff20a15e28e1367,
        ],
    ),
    (
        Scale::Bench,
        "fir",
        [
            0xd904c2a3dbf51269,
            0x80ac8465803a5934,
            0xb4d3da9018b71786,
            0x4cb268eb99d7684a,
        ],
    ),
    (
        Scale::Bench,
        "matmul",
        [
            0xb45fa81cf7ddd3d5,
            0xfe8aa162e96886e7,
            0x6e910fea1300cae7,
            0x913f247da8ae32a0,
        ],
    ),
    (
        Scale::Bench,
        "memcpy",
        [
            0x02d2c9a5a66de899,
            0x1b1634bcd860cb25,
            0x09befaba883a4c40,
            0xed03b39eb16bca7e,
        ],
    ),
    (
        Scale::Bench,
        "dispatch",
        [
            0xe61293ec60d0588d,
            0xe01ac01072ac6423,
            0xb1fc4edb40b166d2,
            0x0180a744e5176d6d,
        ],
    ),
    (
        Scale::Bench,
        "quicksort",
        [
            0x2dcd2c2a671c43ec,
            0x58244a9d49b9296f,
            0x1253d02c7cdabe93,
            0x3357ae757eb85920,
        ],
    ),
    (
        Scale::Bench,
        "strsearch",
        [
            0xc651fd603c5e9e80,
            0x36f416cf5541c1be,
            0x686e924d25782b4a,
            0x646bd0369fa1be97,
        ],
    ),
];

/// FNV-64 of each kernel's parsed module in `Debug` form.
const MODULE_PINS: &[(Scale, &str, u64)] = &[
    (Scale::Test, "adpcm", 0xe890274909b8e695),
    (Scale::Test, "fib", 0xc1fed6fa37894aef),
    (Scale::Test, "crc32", 0x456b60ecb9b0b564),
    (Scale::Test, "bubble_sort", 0x2d63a46b760f1e0d),
    (Scale::Test, "fir", 0x04a7c1b247517152),
    (Scale::Test, "matmul", 0x980662555cfd473d),
    (Scale::Test, "memcpy", 0xe8f7bc2c32f6adfb),
    (Scale::Test, "dispatch", 0x2f2c0725dffa312e),
    (Scale::Test, "quicksort", 0xb0edc223d0c5ecd0),
    (Scale::Test, "strsearch", 0xa043c4f90b598307),
    (Scale::Bench, "adpcm", 0xb9281455b60e7d6a),
    (Scale::Bench, "fib", 0x276c77bea6f43e44),
    (Scale::Bench, "crc32", 0xb40f56f9589b2721),
    (Scale::Bench, "bubble_sort", 0x92816b91bb1dc807),
    (Scale::Bench, "fir", 0x8598ac7afe18c085),
    (Scale::Bench, "matmul", 0x980662555cfd473d),
    (Scale::Bench, "memcpy", 0xc948889c6dc28d3a),
    (Scale::Bench, "dispatch", 0x1fda475eb7dbf928),
    (Scale::Bench, "quicksort", 0x6c484c8579eab9de),
    (Scale::Bench, "strsearch", 0xaf7b9e4d0bf9e8e1),
];

/// Every kernel of both scales beside its image pins.
fn pinned_kernels() -> Vec<(String, String, [u64; 4])> {
    let kernels = [Scale::Test, Scale::Bench]
        .into_iter()
        .flat_map(|scale| suite(scale).into_iter().map(move |w| (scale, w)));
    kernels
        .zip(IMAGE_PINS)
        .map(|((scale, w), &(pin_scale, name, pins))| {
            assert_eq!((scale, w.name), (pin_scale, name), "the suites changed");
            (format!("{scale:?}/{name}"), w.source, pins)
        })
        .collect()
}

#[test]
fn the_pin_tables_cover_both_suites() {
    let kernels = suite(Scale::Test).len() + suite(Scale::Bench).len();
    assert_eq!(IMAGE_PINS.len(), kernels);
    assert_eq!(MODULE_PINS.len(), kernels);
}

#[test]
fn transform_reproduces_every_pinned_image() {
    for (name, source, pins) in pinned_kernels() {
        let module = asm::parse(&source).unwrap();
        for ((keys, nonce), pin) in sealings().into_iter().zip(pins) {
            let image = Transformer::new(keys)
                .with_nonce(nonce)
                .transform(&module)
                .unwrap();
            assert_eq!(digest(&image), pin, "{name} under nonce {}", nonce.value());
        }
    }
}

#[test]
fn one_plan_seals_every_pinned_image() {
    for (name, source, pins) in pinned_kernels() {
        let module = asm::parse(&source).unwrap();
        let plan = SealPlan::new(&module, BlockFormat::default(), 1 << 20).unwrap();
        for ((keys, nonce), pin) in sealings().into_iter().zip(pins) {
            assert_eq!(digest(&plan.seal(&keys, nonce)), pin, "{name}");
        }
    }
}

/// The cache's second tenant of each source seals from the first one's
/// plan, and gets the pinned image.
#[test]
fn cache_plan_hits_reproduce_the_pinned_images() {
    let cache = ImageCache::new();
    let [(a, _), _, (b, _), _] = sealings();
    let mut sources = HashSet::new();
    for (name, source, pins) in pinned_kernels() {
        let first = cache.get_or_seal(&a, &source).unwrap();
        let planned = cache.stats().planned;
        let second = cache.get_or_seal(&b, &source).unwrap();
        assert_eq!(cache.stats().planned, planned, "{name} was planned twice");
        assert_eq!(
            [digest(&first), digest(&second)],
            [pins[0], pins[2]],
            "{name}"
        );
        sources.insert(source);
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.plans, stats.planned),
        (sources.len(), sources.len() as u64)
    );
    assert_eq!(stats.entries, 2 * sources.len());
}

#[test]
fn every_parsed_module_is_pinned() {
    let kernels = [Scale::Test, Scale::Bench]
        .into_iter()
        .flat_map(|scale| suite(scale).into_iter().map(move |w| (scale, w)));
    for ((scale, w), &(pin_scale, name, pin)) in kernels.zip(MODULE_PINS) {
        assert_eq!((scale, w.name), (pin_scale, name), "the suites changed");
        let module = format!("{:?}", asm::parse(&w.source).unwrap());
        assert_eq!(fnv64(module.as_bytes()), pin, "{scale:?}/{name}");
    }
}

/// Small programs for the drawn request sequences: distinct texts,
/// some with loops and data, all quick to plan.
fn program(i: usize) -> String {
    match i % 3 {
        0 => format!("main: li t0, {i}\n halt"),
        1 => format!("main: li t0, {i}\nloop: subi t0, t0, 1\n bnez t0, loop\n halt"),
        _ => format!(".data\ntbl: .word {i}, 2, 3\n.text\nmain: la a0, tbl\n lw t0, 0(a0)\n halt"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of `(tenant, program)` requests leaves one plan per
    /// distinct program and one image per distinct pair, each image
    /// equal to a direct installation.
    #[test]
    fn plans_follow_sources_and_images_follow_pairs(
        requests in proptest::collection::vec((0u64..5, 0usize..6), 1..30),
    ) {
        let cache = ImageCache::new();
        let mut pairs = HashSet::new();
        for &(tenant, i) in &requests {
            let keys = KeySet::from_seed(tenant);
            let image = cache.get_or_seal(&keys, &program(i)).unwrap();
            if pairs.insert((tenant, i)) {
                let direct = Transformer::new(keys)
                    .transform(&asm::parse(&program(i)).unwrap())
                    .unwrap();
                prop_assert_eq!(&*image, &direct);
            }
        }
        let sources: HashSet<usize> = requests.iter().map(|&(_, i)| i).collect();
        let stats = cache.stats();
        prop_assert_eq!((stats.plans, stats.planned), (sources.len(), sources.len() as u64));
        prop_assert_eq!((stats.entries, stats.misses), (pairs.len(), pairs.len() as u64));
        prop_assert_eq!(stats.hits, (requests.len() - pairs.len()) as u64);
    }
}
