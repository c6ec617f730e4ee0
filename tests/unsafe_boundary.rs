//! The workspace's `unsafe` boundary, enforced at test time.
//!
//! The AES-NI backend (`crates/crypto/src/aesni.rs`) is the one program
//! module allowed to contain `unsafe`: its three calls into
//! `#[target_feature(enable = "aes")]` kernels. This test fails if the
//! keyword shows up in any other `.rs` file under `crates/` or `shims/`
//! (comments and string literals aside), if that module grows more
//! `unsafe`, or if a crate root other than `ironsafe-crypto`'s drops
//! `#![forbid(unsafe_code)]`.

use std::fs;
use std::path::{Path, PathBuf};

/// The AES-NI module and the number of `unsafe` blocks it may hold.
const AESNI: &str = "crates/crypto/src/aesni.rs";
const AESNI_UNSAFE: usize = 3;

/// Test harness code outside the program: a counting global allocator
/// must `unsafe impl GlobalAlloc`, and that test binary is never linked
/// into the workspace's crates.
const TEST_ONLY: &[&str] = &["crates/obs/tests/zero_alloc.rs"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Source with comments and the contents of string and char literals
/// blanked out, so only code tokens remain.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            let end = src[i + 2..].find("*/").map_or(b.len(), |e| i + 2 + e + 2);
            out.push(' ');
            i = end;
        } else if b[i..].starts_with(b"r#\"") {
            let end = src[i + 3..].find("\"#").map_or(b.len(), |e| i + 3 + e + 2);
            out.push_str("\"\"");
            i = end;
        } else if b[i] == b'\'' && (b.get(i + 1) == Some(&b'\\') || b.get(i + 2) == Some(&b'\'')) {
            // A char literal (a lone `'` is a lifetime and stays).
            let from = if b[i + 1] == b'\\' { i + 3 } else { i + 2 };
            let close = src[from..].find('\'').map_or(b.len(), |e| from + e + 1);
            out.push_str("' '");
            i = close;
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            out.push_str("\"\"");
            i += 1;
        } else {
            let ch = src[i..].chars().next().expect("char boundary");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Occurrences of the `unsafe` keyword (not `unsafe_code` and the like).
fn unsafe_tokens(src: &str) -> usize {
    let code = code_only(src);
    let word = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe")
        .filter(|&(at, m)| {
            !code[..at].chars().next_back().is_some_and(word)
                && !code[at + m.len()..].chars().next().is_some_and(word)
        })
        .count()
}

fn rel(path: &Path) -> String {
    path.strip_prefix(root())
        .expect("under root")
        .to_string_lossy()
        .replace('\\', "/")
}

#[test]
fn unsafe_lives_only_in_the_aesni_module() {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("shims"), &mut files);
    assert!(files.len() > 100, "scan found the workspace sources");
    let mut offenders = Vec::new();
    for path in &files {
        let name = rel(path);
        let n = unsafe_tokens(&fs::read_to_string(path).expect("readable source"));
        match name.as_str() {
            AESNI => assert_eq!(n, AESNI_UNSAFE, "{AESNI} holds exactly its dispatch calls"),
            other if TEST_ONLY.contains(&other) => {}
            _ if n > 0 => offenders.push(format!("{name}: {n}")),
            _ => {}
        }
    }
    assert!(
        offenders.is_empty(),
        "`unsafe` outside {AESNI}: {offenders:?}"
    );
}

#[test]
fn every_other_crate_root_forbids_unsafe() {
    let root = root();
    let mut roots = Vec::new();
    for group in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(group)).expect("readable dir") {
            let src = entry.expect("dir entry").path().join("src");
            roots.extend(
                ["lib.rs", "main.rs"]
                    .map(|f| src.join(f))
                    .into_iter()
                    .filter(|p| p.exists()),
            );
            if let Ok(bins) = fs::read_dir(src.join("bin")) {
                roots.extend(bins.map(|b| b.expect("bin entry").path()));
            }
        }
    }
    assert!(roots.len() >= 20, "found the crate roots: {roots:?}");
    for path in roots {
        let name = rel(&path);
        let src = fs::read_to_string(&path).expect("readable root");
        if name == "crates/crypto/src/lib.rs" {
            assert!(
                src.contains("#![deny(unsafe_code)]"),
                "{name} denies unsafe_code"
            );
            assert_eq!(
                src.matches("#[allow(unsafe_code)]").count(),
                1,
                "{name}: one allowed module"
            );
            assert!(
                src.contains("#[allow(unsafe_code)]\nmod aesni;"),
                "{name}: the allowance is on the aesni module"
            );
        } else {
            assert!(
                src.contains("#![forbid(unsafe_code)]"),
                "{name} forbids unsafe_code"
            );
        }
    }
}

#[test]
fn scanner_sees_code_not_prose() {
    assert_eq!(
        unsafe_tokens("// unsafe\n/* unsafe */ let s = \"unsafe\";"),
        0
    );
    assert_eq!(
        unsafe_tokens("#![forbid(unsafe_code)] fn not_unsafe() {}"),
        0
    );
    assert_eq!(unsafe_tokens("unsafe { f() }\nunsafe impl X for Y {}"), 2);
    assert_eq!(
        unsafe_tokens("let q = '\"'; unsafe { g::<'a>() }; let e = '\\''; r#\"unsafe\"#"),
        1
    );
}
