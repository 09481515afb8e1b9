//! The decoders of stored and shipped bytes: a census, and the property
//! each one holds.
//!
//! **The census** (`tests/decoders.txt`): every function or wire
//! declaration of the non-test source that turns stored or shipped bytes
//! into a value, each marked `canonical` (it accepts exactly what its
//! encoder writes) or `wider` (it accepts more, and why). A function named
//! `decode`, `deserialize`, `revive` or `unescape` (alone or with a `_…`
//! suffix), a `wire!` declaration and an `impl` of `Wire` or `Codec` is
//! found by a grep, and fails here until it is listed; a listed entry
//! that is gone fails too. The grep is a tripwire, not a proof.
//!
//! **The properties.** Each kit type round-trips and is canonical. Each
//! listed pair reached through the public API runs over a seeded corpus
//! of canonical encodings and their mutants (`support/mutants.rs`: a byte
//! inserted, deleted or flipped, a digit padded, a stretch duplicated or
//! swapped, the tail cut): decoding never panics, and what a `canonical`
//! decoder accepts its encoder writes back byte for byte, while what a
//! `wider` one accepts reads back as itself once re-encoded. The pairs
//! whose decoder is private (the manifest, the SQL image and WAL batch,
//! the vfs tree, a persistent filter) run the same property in their own
//! crate's unit tests. Each pair takes 32 seeds (64 for a policy field and
//! `FsOp`), each seed one canonical encoding and 48 mutants of it; this
//! file runs in under a second in a debug build (0.15 s on a 2-vCPU host).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use resin::core::policies::{Acl, Right};
use resin::core::prelude::*;
use resin::core::serialize::{
    read_object, read_spans, read_texts, write_object, write_texts, SpansWriter,
};
use resin::lang::value::{Entry, Frozen, PValue};
use resin::store::io::{read_all, Map, Seq, Wire};
use resin::store::segment::{parse_segment_index, segment_file_name};
use resin::store::wal::{encode_record, scan, Record};
use resin::store::{wire, SpanRef};
use resin::vfs::FsOp;

#[path = "support/mutants.rs"]
mod mutants;
#[path = "support/source.rs"]
mod source;

use mutants::{canonical, wider, Rng};

// ---- the census ----

/// The decoder-shaped names a function may have.
const PREFIXES: [&str; 4] = ["decode", "deserialize", "revive", "unescape"];

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier `line` starts with.
fn ident(line: &str) -> &str {
    let line = line.trim_start();
    &line[..line.find(|c| !is_ident(c)).unwrap_or(line.len())]
}

/// The declarations of `lines` the census tracks: `(name, decoder-shaped)`
/// for every `fn`, and every `wire!` or `Wire`/`Codec` impl (shaped).
fn declarations(lines: &[&str]) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        for (at, _) in line.match_indices("fn ") {
            if at == 0 || line[..at].ends_with(' ') {
                let name = ident(&line[at + 3..]);
                let shaped = PREFIXES
                    .iter()
                    .any(|p| name == *p || name.starts_with(&format!("{p}_")));
                out.push((name.to_string(), shaped));
            }
        }
        if let Some(rest) = t.strip_prefix("wire! {") {
            let name = match ident(rest) {
                "" => ident(lines.get(i + 1).copied().unwrap_or("")),
                name => name,
            };
            out.push((name.to_string(), true));
        }
        let is_impl = t.starts_with("impl ") || t.starts_with("impl<");
        if is_impl && (t.contains(" Wire for ") || t.contains("Codec<")) {
            if let Some((_, ty)) = t.rsplit_once(" for ") {
                let ty: String = ty.trim_end_matches('{').split_whitespace().collect();
                out.push((ty, true));
            }
        }
    }
    out
}

/// A verdict of the census: `canonical` or `wider`.
const VERDICTS: [&str; 2] = ["canonical", "wider"];

#[test]
fn every_decoder_is_listed_with_its_verdict() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut excludes = Vec::new();
    let mut listed = BTreeMap::new();
    for (n, line) in include_str!("decoders.txt").lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["exclude", substr] = fields[..] {
            excludes.push(substr.to_string());
            continue;
        }
        let [file, name, verdict, _reason, ..] = fields[..] else {
            panic!("decoders.txt:{}: want `FILE NAME VERDICT reason`", n + 1);
        };
        assert!(
            VERDICTS.contains(&verdict),
            "decoders.txt:{}: `{verdict}`",
            n + 1
        );
        let key = (file.to_string(), name.to_string());
        assert!(
            listed.insert(key, n + 1).is_none(),
            "decoders.txt:{}: twice",
            n + 1
        );
    }
    let mut wrong = Vec::new();
    let mut declared = BTreeMap::new();
    for (rel, src) in source::files(root, &excludes) {
        for (name, shaped) in declarations(&source::non_test_lines(&src)) {
            let key = (rel.clone(), name);
            if shaped && !listed.contains_key(&key) {
                wrong.push(format!(
                    "unlisted: {} {} <canonical|wider> <reason>",
                    key.0, key.1
                ));
            }
            declared.insert(key, ());
        }
    }
    for ((file, name), line) in &listed {
        if !declared.contains_key(&(file.clone(), name.clone())) {
            wrong.push(format!(
                "decoders.txt:{line}: listed but gone: {file} {name}"
            ));
        }
    }
    wrong.dedup();
    assert!(
        wrong.is_empty(),
        "the source differs from tests/decoders.txt:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn the_census_finds_decoders_by_name_and_declaration() {
    let src = "\
pub(crate) fn decode_manifest(bytes: &[u8]) {}
fn decoded(x: u8) {}
fn percent_decode(x: u8) {}
    pub fn revive(&self) {}
wire! { ManifestEntry { name, file } }
wire! {
    FsOp: u8 { Mkdir { path } = 0 }
}
impl<T: AsRef<str>> Codec<T> for SpansBlob {
impl Wire for Cow<'_, str> {
";
    let lines: Vec<&str> = src.lines().collect();
    let shaped: Vec<String> = declarations(&lines)
        .into_iter()
        .filter(|(_, shaped)| *shaped)
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        shaped,
        [
            "decode_manifest",
            "revive",
            "ManifestEntry",
            "FsOp",
            "SpansBlob",
            "Cow<'_,str>"
        ]
    );
}

// ---- the kit ----

fn bytes<T: Wire + ?Sized>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out).unwrap();
    out
}

/// A kit type's two properties over `values`: each reads back as itself,
/// and every mutant of its bytes that reads at all is what it writes.
fn kit<T: Wire + PartialEq + std::fmt::Debug>(values: &[T]) -> usize {
    let canons: Vec<Vec<u8>> = values.iter().map(bytes).collect();
    for (v, c) in values.iter().zip(&canons) {
        assert_eq!(read_all(c, T::get).unwrap(), *v);
    }
    canonical(&canons, |b| read_all(b, T::get).ok(), bytes)
}

/// A text of up to `max` characters drawn from separators, escapes,
/// digits and multi-byte characters.
fn text(rng: &mut Rng, max: usize) -> String {
    const CHARS: [char; 14] = [
        'a', 'B', '0', '7', '%', ':', ',', '/', '.', '{', '#', 'é', '€', '\u{1c}',
    ];
    (0..rng.below(max + 1))
        .map(|_| CHARS[rng.below(CHARS.len())])
        .collect()
}

fn number(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(3) as u64,
        1 => u64::MAX - rng.below(3) as u64,
        _ => (rng.below(1 << 30) as u64) << rng.below(34),
    }
}

#[derive(Debug, PartialEq)]
struct Counted {
    short: Vec<u64>,
    long: Vec<String>,
    map: BTreeMap<String, bool>,
}

wire! { Counted { short as Seq<u32>, long as Seq<u64>, map as Map<u32> } }

#[derive(Debug, PartialEq)]
enum Shape<'a> {
    Unit,
    Pair(u8, Option<i64>),
    Named { text: Cow<'a, str>, magic: [u8; 4] },
}

wire! {
    Shape<'a>: u8 {
        Unit {} = 0,
        Pair(a, b) = 1,
        Named { text, magic } = 7,
    }
}

#[test]
fn every_kit_type_round_trips_and_reads_only_what_it_writes() {
    let mut rng = Rng::new(1);
    let seeds = 0..32;
    let ints: Vec<u64> = seeds.clone().map(|_| number(&mut rng)).collect();
    kit(&ints.iter().map(|&n| n as u8).collect::<Vec<_>>());
    kit(&ints.iter().map(|&n| n as u32).collect::<Vec<_>>());
    kit(&ints);
    kit(&ints.iter().map(|&n| n as i64).collect::<Vec<_>>());
    let flags = kit(&[true, false]);
    assert!(flags > 0, "a mutant that keeps a flag valid still reads");
    kit(&ints
        .iter()
        .map(|&n| (n % 3 > 0).then_some(n as u32))
        .collect::<Vec<_>>());
    let texts: Vec<String> = seeds.clone().map(|_| text(&mut rng, 12)).collect();
    kit(&texts);
    kit(&seeds
        .clone()
        .map(|i| Counted {
            short: ints[..i % 5].to_vec(),
            long: texts[..i % 3].to_vec(),
            map: texts[..i % 4]
                .iter()
                .map(|t| (t.clone(), t.len() % 2 == 0))
                .collect(),
        })
        .collect::<Vec<_>>());
    kit(&seeds
        .clone()
        .map(|i| match i % 3 {
            0 => Shape::Unit,
            1 => Shape::Pair(i as u8, (i % 2 == 0).then_some(-(i as i64))),
            _ => Shape::Named {
                text: texts[i].clone().into(),
                magic: *b"RSNP",
            },
        })
        .collect::<Vec<_>>());
    kit(&seeds
        .map(|i| SpanRef {
            start: i as u64,
            end: ints[i],
            policies: (0..i % 4).map(|p| p as u32).collect(),
        })
        .collect::<Vec<_>>());
}

#[test]
fn a_flag_tag_and_map_key_are_read_one_way() {
    assert!(read_all(&[2], bool::get).is_err(), "a flag of 2");
    assert!(
        read_all(&[2], Option::<u8>::get).is_err(),
        "an option tag of 2"
    );
    assert!(read_all(&[3], Shape::get).is_err(), "a tag no variant has");
    let map = |keys: &[&str]| {
        let mut out = bytes(&(keys.len() as u32));
        for k in keys {
            out.extend(bytes(*k));
            out.push(1);
        }
        out
    };
    let get = |b: &[u8]| {
        read_all(
            b,
            <Map<u32> as resin::store::io::Codec<BTreeMap<String, bool>>>::get,
        )
    };
    assert!(get(&map(&["a", "b"])).is_ok());
    assert!(get(&map(&["b", "a"])).is_err(), "keys out of order");
    assert!(get(&map(&["a", "a"])).is_err(), "a key twice");
}

// ---- the public pairs ----

fn utf8(b: &[u8]) -> Option<&str> {
    std::str::from_utf8(b).ok()
}

fn acls(rng: &mut Rng) -> Vec<Acl> {
    (0..32)
        .map(|_| {
            let mut acl = Acl::new();
            for _ in 0..rng.below(4) {
                let rights = [Right::Read, Right::Write, Right::Admin];
                let r = &rights[..rng.below(4)];
                acl.add(text(rng, 6), r);
            }
            acl
        })
        .collect()
}

#[test]
fn an_acl_decodes_only_what_it_encodes() {
    let canons: Vec<Vec<u8>> = acls(&mut Rng::new(2))
        .iter()
        .map(|a| a.encode().into_bytes())
        .collect();
    canonical(
        &canons,
        |b| Acl::decode(utf8(b)?),
        |a| a.encode().into_bytes(),
    );
}

fn entry(rng: &mut Rng, depth: usize) -> Entry {
    match rng.below(if depth > 0 { 5 } else { 4 }) {
        0 => Entry::Null,
        1 => Entry::Bool(rng.below(2) == 0),
        2 => Entry::Int(number(rng) as i64),
        3 => Entry::Str(Arc::new(TaintedString::from(text(rng, 8)))),
        _ => {
            let items = (0..rng.below(4)).map(|_| entry(rng, depth - 1)).collect();
            Entry::List(Arc::new(Frozen::List(items)))
        }
    }
}

#[test]
fn a_policy_field_decodes_only_what_it_encodes() {
    let mut rng = Rng::new(3);
    let canons: Vec<Vec<u8>> = (0..64)
        .map(|_| entry(&mut rng, 2).encode().into_bytes())
        .collect();
    canonical(
        &canons,
        |b| Entry::decode(utf8(b)?),
        |v| v.encode().into_bytes(),
    );
}

/// A script policy's stored text, pinned byte for byte for each field
/// shape: no fixture holds one, so this is what says the field grammar
/// (`n:`, `b:`, `i:`, `s:`, `l:` with `%XX` and `\x1c`) has not moved.
#[test]
fn a_script_policy_writes_each_field_shape_byte_for_byte() {
    let class = resin::lang::parse_program("class Golden { fn export_check(c) { } }")
        .unwrap()
        .into_iter()
        .find_map(|stmt| match stmt.kind {
            resin::lang::ast::StmtKind::ClassDef(class) => Some(class),
            _ => None,
        })
        .unwrap();
    let nested = PValue::List(vec![
        PValue::Str("a%b".into()),
        PValue::List(vec![PValue::Str("c\x1cd".into()), PValue::Int(-1)]),
        PValue::List(vec![]),
    ]);
    let fields = BTreeMap::from([
        ("a_null".to_string(), PValue::Null),
        ("b_true".to_string(), PValue::Bool(true)),
        ("c_false".to_string(), PValue::Bool(false)),
        ("d_zero".to_string(), PValue::Int(0)),
        ("e_negative".to_string(), PValue::Int(-42)),
        ("f_min".to_string(), PValue::Int(i64::MIN)),
        ("g_text".to_string(), PValue::Str("{x} ;=:,%#é".into())),
        ("h_empty".to_string(), PValue::List(vec![])),
        ("i_nested".to_string(), nested),
    ]);
    let policy = resin::lang::ScriptPolicy::new(class.name.clone(), fields, Some(class));
    let text = resin::core::serialize::serialize_policy(&(Arc::new(policy) as PolicyRef));
    let golden = concat!(
        "Golden{a_null=n:;b_true=b:true;c_false=b:false;d_zero=i:0;e_negative=i:-42;",
        "f_min=i:-9223372036854775808;g_text=s:%7Bx%7D %3B%3D:%2C%25%23é;h_empty=l:;",
        "i_nested=l:s:a%2525b\u{1c}l:s:c%25251Cd%251Ci:-1\u{1c}l:}",
    );
    assert_eq!(text, golden);
}

/// The text the spans blobs of these tests lie over.
const TEXT: &str = "0123456789abcdefghij";

/// A tainted text with up to three policy spans over it.
fn tainted(rng: &mut Rng) -> TaintedString {
    let mut t = TaintedString::from(TEXT);
    for _ in 0..rng.below(4) {
        let start = rng.below(TEXT.len());
        let end = start + 1 + rng.below(TEXT.len() - start);
        let policy: PolicyRef = match rng.below(3) {
            0 => Arc::new(UntrustedData::from_source(text(rng, 6))),
            1 => Arc::new(PasswordPolicy::new(text(rng, 6))),
            _ => Arc::new(UntrustedData::new()),
        };
        t.add_policy_range(start..end, policy);
    }
    t
}

fn blobs() -> Vec<Vec<u8>> {
    let mut rng = Rng::new(4);
    (0..32)
        .map(|_| serialize_spans(&tainted(&mut rng)).into_bytes())
        .filter(|b| !b.is_empty())
        .collect()
}

/// A spans blob as its one reader splits it: the table's texts, then
/// each span's range and indexes.
type Blob = (Vec<String>, Vec<(std::ops::Range<u64>, Vec<usize>)>);

fn read_blob(blob: &str) -> Option<Blob> {
    let mut texts = Vec::new();
    let spans = read_spans(blob, &mut |t| texts.push(t.to_string())).ok()?;
    let spans = spans
        .map(|s| s.map(|(r, i)| (r, i.collect())))
        .collect::<Result<_, _>>()
        .ok()?;
    Some((texts, spans))
}

fn write_blob((texts, spans): &Blob) -> Vec<u8> {
    let mut w = SpansWriter::default();
    for (range, indexes) in spans {
        w.span(range.clone(), indexes.iter().copied());
    }
    w.finish(texts).into_bytes()
}

#[test]
fn a_spans_blob_reads_only_what_its_writer_writes() {
    let accepted = canonical(&blobs(), |b| read_blob(utf8(b)?), write_blob);
    assert!(accepted > 0, "a mutant inside a policy text still reads");
}

#[test]
fn a_revived_spans_blob_writes_back_what_it_reads() {
    let revive = |b: &[u8]| Some(serialize_spans(&deserialize_spans(TEXT, utf8(b)?).ok()?));
    wider(&blobs(), mutants::mutants, revive, |b| {
        b.clone().into_bytes()
    });
}

#[test]
fn a_policy_text_and_label_write_back_what_they_read() {
    let mut rng = Rng::new(5);
    let labels: Vec<Vec<u8>> = (0..32)
        .map(|_| serialize_label(tainted(&mut rng).label_at(rng.below(20))).into_bytes())
        .filter(|b| !b.is_empty())
        .collect();
    let label = |b: &[u8]| Some(serialize_label(deserialize_label(utf8(b)?).ok()?));
    wider(&labels, mutants::mutants, label, |l| l.clone().into_bytes());
    let policy = |b: &[u8]| Some(serialize_policy(&deserialize_policy(utf8(b)?).ok()?));
    let texts: Vec<Vec<u8>> = labels
        .iter()
        .flat_map(|l| {
            read_texts(utf8(l).unwrap())
                .map(|t| t.as_bytes().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    wider(&texts, mutants::mutants, policy, |p| p.clone().into_bytes());
    let object = |b: &[u8]| read_object(utf8(b)?).ok();
    let write = |(name, fields): &(String, BTreeMap<String, String>)| {
        let fields: Vec<(String, String)> = fields.clone().into_iter().collect();
        write_object(name, &fields).into_bytes()
    };
    let objects: Vec<Vec<u8>> = texts.iter().map(|t| write(&object(t).unwrap())).collect();
    wider(&objects, mutants::mutants, object, write);
    let lists = |b: &[u8]| Some(read_texts(utf8(b)?).map(str::to_string).collect::<Vec<_>>());
    canonical(&labels, lists, |texts| write_texts(texts).into_bytes());
}

#[test]
fn a_wal_scan_keeps_exactly_the_frames_it_reads() {
    let mut rng = Rng::new(6);
    for seed in 0..32 {
        let mut log = Vec::new();
        for seq in 1..=rng.below(4) as u64 {
            log.extend(encode_record(seq, text(&mut rng, 9).as_bytes()));
        }
        for m in std::iter::once(log.clone()).chain(mutants::mutants(&log, seed)) {
            let s = scan(&m).unwrap();
            let kept: Vec<u8> = s
                .records
                .iter()
                .flat_map(|Record { seq, payload }| encode_record(*seq, payload))
                .collect();
            assert_eq!(kept, m[..s.valid_len], "{m:?}");
            assert_eq!(s.torn, s.valid_len < m.len());
        }
    }
}

#[test]
fn a_segment_name_reads_only_as_it_is_written() {
    let mut rng = Rng::new(7);
    let names: Vec<Vec<u8>> = (0..32)
        .map(|_| segment_file_name(number(&mut rng) >> rng.below(64)).into_bytes())
        .collect();
    canonical(
        &names,
        |b| parse_segment_index(utf8(b)?),
        |&i| segment_file_name(i).into_bytes(),
    );
}

#[test]
fn a_logged_fs_op_decodes_only_what_it_encodes() {
    let mut rng = Rng::new(8);
    let path = |rng: &mut Rng| -> Vec<String> {
        (0..rng.below(3))
            .map(|_| text(rng, 4).replace(['/', '.'], "x"))
            .filter(|c| !c.is_empty())
            .collect()
    };
    let ops: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let p = path(&mut rng);
            match i % 6 {
                0 => FsOp::Mkdir { path: p },
                1 => FsOp::Write {
                    path: p,
                    content: text(&mut rng, 8),
                    policy: (i % 4 == 1).then(|| serialize_spans(&tainted(&mut rng))),
                },
                2 => FsOp::Unlink { path: p },
                3 => FsOp::Rename {
                    from: p,
                    to: path(&mut rng),
                },
                4 => FsOp::SetXattr {
                    path: p,
                    key: text(&mut rng, 5),
                    value: text(&mut rng, 5),
                },
                _ => FsOp::RemoveXattr {
                    path: p,
                    key: text(&mut rng, 5),
                },
            }
            .encode()
        })
        .collect();
    canonical(&ops, |b| FsOp::decode(b).ok(), FsOp::encode);
}
