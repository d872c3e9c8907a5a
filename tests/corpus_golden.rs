//! Every corpus query's answer, pinned bit for bit.
//!
//! Each query of `WORLD_QUERIES`, the DBLP and car-crash workloads, the SSB
//! flight and the TPC-H subset runs once on the stored database, at the
//! sizes `tests/opaque_census.rs` generates. Its row count and output
//! [`Fingerprint`] are literals: a change to the planner or the executor
//! that moves any answer, even by one bit of one float, fails here and
//! names the query. On a mismatch the message prints the table as computed,
//! in the form of the literals below.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::datagen::queries::{
    dblp_queries, ssb_queries, tpch_queries, CARCRASH_QUERIES, WORLD_QUERIES,
};
use qirana::datagen::{carcrash, dblp, ssb, tpch, world};
use qirana::sqlengine::{fingerprint, query, Fingerprint};
use qirana::Database;

/// `(name, rows, fingerprint)` of each query of `corpus` on `db`.
fn answers<N: ToString, Q: AsRef<str>>(
    db: &Database,
    corpus: impl IntoIterator<Item = (N, Q)>,
) -> Vec<(String, usize, Fingerprint)> {
    corpus
        .into_iter()
        .map(|(name, sql)| {
            let sql = sql.as_ref();
            let out = query(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            (name.to_string(), out.rows.len(), fingerprint(&out))
        })
        .collect()
}

/// Names a workload's queries `<prefix>1`, `<prefix>2`, … as Appendix B does.
fn numbered<Q>(
    prefix: &'static str,
    queries: impl IntoIterator<Item = Q>,
) -> impl Iterator<Item = (String, Q)> {
    (1..).map(move |i| format!("{prefix}{i}")).zip(queries)
}

/// Asserts `got` equals `want`, printing `got` as literals otherwise.
fn check(corpus: &str, got: &[(String, usize, Fingerprint)], want: &[(&str, usize, u128)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((n, r, f), (wn, wr, wf))| n == wn && r == wr && f.0 == *wf);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, r, f)| format!("        (\"{n}\", {r}, 0x{:032x}),\n", f.0))
            .collect();
        panic!("{corpus} answers moved; computed:\n{table}");
    }
}

#[test]
fn world_answers_are_pinned() {
    let got = answers(&world::generate(7), numbered("Qw", WORLD_QUERIES));
    check("world", &got, WORLD);
}

#[test]
fn dblp_answers_are_pinned() {
    let nodes = 2000;
    let got = answers(
        &dblp::generate(nodes, 2),
        numbered("Qd", dblp_queries(nodes)),
    );
    check("dblp", &got, DBLP);
}

#[test]
fn carcrash_answers_are_pinned() {
    let got = answers(
        &carcrash::generate(2000, 3),
        numbered("Qc", CARCRASH_QUERIES),
    );
    check("carcrash", &got, CARCRASH);
}

#[test]
fn ssb_answers_are_pinned() {
    for ((sf, seed), want) in [((0.0005, 5), SSB), ((0.002, 31), SSB_0_002)] {
        let got = answers(&ssb::generate(sf, seed), ssb_queries());
        check(&format!("ssb sf {sf}"), &got, want);
    }
}

/// The census size, and the two sizes `tests/sql_engine_workloads.rs`
/// reads Q17 and Q4 at: at sf 0.0005 Q2 and Q11 answer no rows and Q17
/// NULL, at the larger two they do not.
#[test]
fn tpch_answers_are_pinned() {
    for ((sf, seed), want) in [
        ((0.0005, 5), TPCH),
        ((0.002, 33), TPCH_0_002),
        ((0.003, 34), TPCH_0_003),
    ] {
        let got = answers(&tpch::generate(sf, seed), tpch_queries(sf));
        check(&format!("tpch sf {sf}"), &got, want);
    }
}

const WORLD: &[(&str, usize, u128)] = &[
    ("Qw1", 1, 0x39c70691d95ef4e072956be91b58503f),
    ("Qw2", 1, 0xff0ea833956aee12ce797735804e901d),
    ("Qw3", 1, 0x36bb84cb4689ca72beda1d330062bd0d),
    ("Qw4", 1, 0xeae22b28bec2fac6f12111c9d03edcb6),
    ("Qw5", 1, 0x027aa06aabe96bab1004435e26c54c2b),
    ("Qw6", 1, 0x164fc41cd930d0b4500412d57f30170b),
    ("Qw7", 25, 0xe8528415f1fc7c6dcb8ce78c490ada91),
    ("Qw8", 7, 0xe6fd54cdd83a3ac558414aa3ff33172a),
    ("Qw9", 7, 0x3203794eb64aa981273a8023fe27ed9f),
    ("Qw10", 239, 0x451d5970ed0c3c55e2b2033edc68aa2c),
    ("Qw11", 18, 0x121d1385e30ed6fd2764f78c4dd4f3ae),
    ("Qw12", 32, 0x25e3e0850e30657c88cbca1f0be20264),
    ("Qw13", 13, 0x75ecb8bf6ebf2e5def28d8175ee80282),
    ("Qw14", 13, 0xd5052f0653652153afdc6d9ced4316f2),
    ("Qw15", 17, 0xffa23ec4906478bb1c224538ab374d64),
    ("Qw16", 2, 0x5291f0e03aa9979446fd3b2890f8b8ec),
    ("Qw17", 1, 0x298f3cba8691ba63b579e43e95742dc1),
    ("Qw18", 239, 0x7bf936bd3b65b88b5e143a40f59a39ed),
    ("Qw19", 9, 0xee1093e232282f0df3de3f37a649190e),
    ("Qw20", 3, 0xf455c2319b65640dbf5a624a56e29857),
    ("Qw21", 2, 0x6c51d6d576f8b8429c5d0af172a486c1),
    ("Qw22", 239, 0x76dbe2a0bd18d83ba84060f9e9de8818),
    ("Qw23", 20, 0x72a25590a4296d0a92581a633ecd9e17),
    ("Qw24", 1, 0x1508e9825b7ac5761de9f0f7d5a377ac),
    ("Qw25", 239, 0x2deea8e12f4561c021e031c28ae92c9a),
    ("Qw26", 239, 0x65c0db1f6e64de92843cb03066a54375),
    ("Qw27", 16, 0x4c0542452b8058518eb5e282202ca456),
    ("Qw28", 1, 0xc263c827cf90565ac7c802949baf6fc4),
    ("Qw29", 38, 0xee83e00e18eb12d93f62cd803608cdec),
    ("Qw30", 9, 0x59e4b0dea0e16c5c0580e548c3fa46bf),
    ("Qw31", 1, 0xb93b66a118ee3cbea8a449dafecdcdf0),
    ("Qw32", 45, 0x767de34c51473ad7624e67be740e0221),
    ("Qw33", 899, 0x484af1b71365182d7169bf03b5c4b34d),
    ("Qw34", 899, 0x7598023949ee8f8360c399364545b14c),
];
const DBLP: &[(&str, usize, u128)] = &[
    ("Qd1", 87, 0x7c34fa2fbfa5525b5a9fb1b446972280),
    ("Qd2", 1, 0x142aa832fe2c4dccb15983544c79fb05),
    ("Qd3", 1, 0xeb7ac8b5ac71f3642b4f43db342aedc4),
    ("Qd4", 8, 0xf9342352719615369c87bd51bf9f5747),
    ("Qd5", 8, 0x9ea640e0eab8af46c4a70dc970645152),
    ("Qd6", 1221, 0x8fedcee53f1e4b6a828bdfbdba9b904f),
    ("Qd7", 16, 0x575dc8637893203ed7db9880633ff153),
];
const CARCRASH: &[(&str, usize, u128)] = &[
    ("Qc1", 15, 0x9009f00a333a5e52d6a489d4dc89b108),
    ("Qc2", 1, 0x85bb45843e5b969f1f0b558431c535a5),
    ("Qc3", 1, 0xa27a1e10528da95bdfff81d656970084),
    ("Qc4", 1, 0x0dbab9bbd54078e727a315721656d181),
];
const SSB: &[(&str, usize, u128)] = &[
    ("Q1.1", 1, 0x2b5655bccc3e172b2dab0aae5a357b51),
    ("Q1.2", 1, 0xb0aecaabbfd42c76baaf9fe86a51b590),
    ("Q1.3", 1, 0x70e7c2db6fc38e4a32825051514a7e37),
    ("Q2.1", 43, 0x7feec44a251ce6199c5d1cd885f0303f),
    ("Q2.2", 6, 0xde5a4cad775da32bf7eeab00c38070ac),
    ("Q2.3", 0, 0x00000000000000030000000000000000),
    ("Q3.1", 42, 0x8ecbf41e7ee4eb9e6c5fcabe8d884843),
    ("Q3.2", 6, 0x6b67eb383cac06455e02454578eb1296),
    ("Q3.3", 0, 0x00000000000000040000000000000000),
    ("Q3.4", 0, 0x00000000000000040000000000000000),
    ("Q4.1", 19, 0x006729c2e1a75c89c5dd37fbafc13ad9),
    ("Q4.2", 14, 0x7dfe50d5d34af92f2689f5d26e1d8176),
    ("Q4.3", 4, 0x0e168e42bf49370953666080e3c29cbb),
];
const SSB_0_002: &[(&str, usize, u128)] = &[
    ("Q1.1", 1, 0x9b59cd1741be33836638a995ed6ca525),
    ("Q1.2", 1, 0x0819be160e1016a067e8bde49af2f40c),
    ("Q1.3", 1, 0x2fc166e26da330430db14e05e0ffa23c),
    ("Q2.1", 0, 0x00000000000000030000000000000000),
    ("Q2.2", 9, 0x376129024590edb8cdcc6f5e0d6bfa20),
    ("Q2.3", 0, 0x00000000000000030000000000000000),
    ("Q3.1", 48, 0x5398ae441b821cbe9be9ee72517fa59a),
    ("Q3.2", 0, 0x00000000000000040000000000000000),
    ("Q3.3", 0, 0x00000000000000040000000000000000),
    ("Q3.4", 0, 0x00000000000000040000000000000000),
    ("Q4.1", 0, 0x00000000000000030000000000000000),
    ("Q4.2", 0, 0x00000000000000040000000000000000),
    ("Q4.3", 0, 0x00000000000000040000000000000000),
];
const TPCH: &[(&str, usize, u128)] = &[
    ("Q1", 3, 0xdb0ca293f2363f2f4a1dc82727d3ae15),
    ("Q2", 0, 0x00000000000000070000000000000000),
    ("Q4", 5, 0x45836e0e32a026704d9f9f440177bc20),
    ("Q5", 1, 0x65e8e315171a218650e60d23d60d2041),
    ("Q6", 1, 0xc4d381c5c9685c3bea2887e872b0d04c),
    ("Q11", 0, 0x00000000000000020000000000000000),
    ("Q12", 2, 0x646d256fc52f4c0af16958c538613c38),
    ("Q17", 1, 0xd0c9d6a9a37c2288584c15034eee258c),
];
const TPCH_0_002: &[(&str, usize, u128)] = &[
    ("Q1", 3, 0xec4b43dfef7bd39a731bf4888be2ac48),
    ("Q2", 1, 0xe4ab7e6337c04f22d48cf0367f30a174),
    ("Q4", 5, 0xaf02e1321e879fd35a779b6831d8f0d9),
    ("Q5", 3, 0x0d530e7959826244cf0d7fe531691224),
    ("Q6", 1, 0x05c3c9bea4a1d4808b89aa51b7951892),
    ("Q11", 0, 0x00000000000000020000000000000000),
    ("Q12", 2, 0xe0e4528375fbc87e361d9a3d84daea48),
    ("Q17", 1, 0x10ccc32604c4c10e1925e167d47e5fc3),
];
const TPCH_0_003: &[(&str, usize, u128)] = &[
    ("Q1", 3, 0xe96875aa981f348794d910b65a0d8248),
    ("Q2", 2, 0x0a77686c47fc2b0080a510d303ce3b71),
    ("Q4", 5, 0x80537ec92e57a25dd58d9f4b094da7bb),
    ("Q5", 2, 0x215fbf840c0cf0a6a7a5497d07e74ebf),
    ("Q6", 1, 0xf03215c5afbfe76292d7a65823561e8f),
    ("Q11", 3, 0x92fc6703a0774de342447d71b411dc90),
    ("Q12", 2, 0x984344b7738e9ab1a194113a2c1067ae),
    ("Q17", 1, 0xd0c9d6a9a37c2288584c15034eee258c),
];
