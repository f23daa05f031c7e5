//! `bx logconv` — convert an event-log directory between the two
//! on-disk formats: JSONL (debug/interchange) and the binary segmented
//! log (fast replay, whole-log corruption detection).
//!
//! Run with: `cargo run --example bx_logconv -- <binary|jsonl> <src-dir> <dst-dir>`
//! or, for a whole federation's source set:
//! `cargo run --example bx_logconv -- <binary|jsonl> --federation <src-root> <dst-root>`
//!
//! The destination mirrors the source's durable contents — checkpoint
//! base plus the intact pending events — in the requested format, and
//! must be empty or absent (a conversion is never merged into an
//! existing log). A torn tail in the source is dropped, exactly as a
//! restart would drop it; real corruption aborts the conversion.
//!
//! In `--federation` mode every immediate subdirectory of `<src-root>`
//! is one source log (the layout a [`bx::core::replica::Federation`]
//! tails), converted to the same-named subdirectory of `<dst-root>`. A
//! per-source summary line reports each outcome; a source that fails
//! does not stop the others. Sources convert one after another on the
//! calling thread.
//!
//! Exit codes: `0` — converted; `1` — conversion failed (corrupt
//! source, unwritable destination; in `--federation` mode, any source
//! failed); `2` — usage problem. Same contract as `bx_lint`, so CI can
//! chain them: convert a kept log, lint the conversion, convert it back.

use std::path::Path;
use std::process::ExitCode;

use bx::core::binlog::convert_log_dir;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (format, federation, src, dst) = match args.as_slice() {
        [format, src, dst] => (format, false, src, dst),
        [format, flag, src, dst] if flag == "--federation" => (format, true, src, dst),
        _ => {
            eprintln!(
                "usage: bx_logconv <binary|jsonl> <src-dir> <dst-dir>\n\
                        bx_logconv <binary|jsonl> --federation <src-root> <dst-root>"
            );
            return ExitCode::from(2);
        }
    };
    let to_binary = match format.as_str() {
        "binary" => true,
        "jsonl" => false,
        other => {
            eprintln!("bx logconv: unknown target format `{other}` (want `binary` or `jsonl`)");
            return ExitCode::from(2);
        }
    };
    let (src, dst) = (Path::new(src), Path::new(dst));
    if !src.is_dir() {
        eprintln!("bx logconv: source `{}` is not a directory", src.display());
        return ExitCode::from(2);
    }
    if federation {
        return convert_federation(src, dst, to_binary, format);
    }

    match convert_log_dir(src, dst, to_binary) {
        Ok(events) => {
            println!(
                "bx logconv: wrote {} pending event(s) from `{}` to `{}` as {}",
                events,
                src.display(),
                dst.display(),
                format,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bx logconv: converting `{}` failed: {e}", src.display());
            ExitCode::from(1)
        }
    }
}

/// Convert every source subdirectory of `src_root` into the same-named
/// subdirectory of `dst_root`, reporting each outcome and failing the
/// run (exit 1) if any source failed while still attempting the rest.
fn convert_federation(src_root: &Path, dst_root: &Path, to_binary: bool, format: &str) -> ExitCode {
    let mut sources: Vec<(String, std::path::PathBuf)> = match std::fs::read_dir(src_root) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
            .collect(),
        Err(e) => {
            eprintln!("bx logconv: reading `{}` failed: {e}", src_root.display());
            return ExitCode::from(2);
        }
    };
    if sources.is_empty() {
        eprintln!(
            "bx logconv: `{}` has no source subdirectories to convert",
            src_root.display()
        );
        return ExitCode::from(2);
    }
    sources.sort();
    let mut converted = 0usize;
    let mut failed = 0usize;
    for (name, src) in &sources {
        let dst = dst_root.join(name);
        match convert_log_dir(src, &dst, to_binary) {
            Ok(events) => {
                converted += 1;
                println!("bx logconv: source `{name}`: {events} pending event(s) as {format}");
            }
            Err(e) => {
                failed += 1;
                eprintln!("bx logconv: source `{name}`: FAILED: {e}");
            }
        }
    }
    println!(
        "bx logconv: federation `{}`: {converted} converted, {failed} failed",
        src_root.display()
    );
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
