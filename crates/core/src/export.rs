//! Machine-readable exports (CSV and JSON) of the analysis tables, for
//! plotting the figures the way the artifact's gnuplot scripts do and for
//! feeding stored profiles to external dashboards.

use std::fmt::Write as _;

use crate::analysis::Analysis;
use crate::blocks::block_stats;
use crate::tables::ProfileTables;
use crate::types::{FuncStats, LoopStats};

fn esc(s: &str) -> String {
    // RFC 4180: a field containing the delimiter, a quote, or a line break
    // must be quoted, or the row splits mid-record.
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Functions table as CSV.
pub fn functions_csv(analysis: &Analysis) -> String {
    let mut out = String::from(
        "module,function,self_cycles,incl_cycles,self_samples,self_insns,incl_insns,ipc,cpi\n",
    );
    for f in analysis.functions() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            f.module,
            esc(&f.name),
            f.self_cycles,
            f.incl_cycles,
            f.self_samples,
            f.self_insns,
            f.incl_insns,
            f.ipc().map(|v| format!("{v:.4}")).unwrap_or_default(),
            f.cpi().map(|v| format!("{v:.4}")).unwrap_or_default(),
        );
    }
    out
}

/// Loops table as CSV.
pub fn loops_csv(analysis: &Analysis) -> String {
    let mut out = String::from(
        "module,function,header_offset,depth,iterations,invocations,body_insns,total_insns,cycles,samples,insns_per_iter,cpi,file,line_lo,line_hi\n",
    );
    for l in analysis.loops() {
        let (file, lo, hi) = match &l.lines {
            Some((f, lo, hi)) => (f.clone(), lo.to_string(), hi.to_string()),
            None => (String::new(), String::new(), String::new()),
        };
        let _ = writeln!(
            out,
            "{},{},{:#x},{},{},{},{},{},{},{},{:.2},{},{},{},{}",
            l.module,
            esc(&l.function),
            l.header_offset,
            l.depth,
            l.iterations,
            l.invocations,
            l.body_insns,
            l.total_insns,
            l.cycles,
            l.samples,
            l.insns_per_iteration(),
            l.cpi().map(|v| format!("{v:.4}")).unwrap_or_default(),
            esc(&file),
            lo,
            hi,
        );
    }
    out
}

/// Per-instruction rows of one function as CSV.
pub fn annotate_csv(analysis: &Analysis, module: u32, function: &str) -> String {
    let mut out = String::from("offset,instruction,samples,cycles,execs,cpi\n");
    for r in analysis.annotate_function(module, function) {
        let _ = writeln!(
            out,
            "{:#x},{},{},{},{},{}",
            r.loc.offset,
            esc(&r.text),
            r.samples,
            r.cycles,
            r.count,
            r.cpi.map(|v| format!("{v:.4}")).unwrap_or_default(),
        );
    }
    out
}

/// Block table as CSV.
pub fn blocks_csv(analysis: &Analysis) -> String {
    let mut out = String::from("module,function,start,len,count,cycles,samples,cpi\n");
    for b in block_stats(analysis) {
        let _ = writeln!(
            out,
            "{},{},{:#x},{},{},{},{},{}",
            b.module,
            esc(&b.function),
            b.start,
            b.len,
            b.count,
            b.cycles,
            b.samples,
            b.cpi().map(|v| format!("{v:.4}")).unwrap_or_default(),
        );
    }
    out
}

/// Escapes `s` as the contents of a JSON string literal (RFC 8259): quote,
/// backslash and control characters only — everything else passes through
/// as UTF-8.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        _ => "null".to_string(),
    }
}

/// Functions table as a JSON array, mirroring `functions_csv` columns.
pub fn functions_json(functions: &[FuncStats]) -> String {
    let mut out = String::from("[");
    for (i, f) in functions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"module\":{},\"function\":\"{}\",\"self_cycles\":{},\"incl_cycles\":{},\
             \"self_samples\":{},\"self_insns\":{},\"incl_insns\":{},\"ipc\":{},\"cpi\":{}}}",
            f.module,
            json_escape(&f.name),
            f.self_cycles,
            f.incl_cycles,
            f.self_samples,
            f.self_insns,
            f.incl_insns,
            json_opt(f.ipc()),
            json_opt(f.cpi()),
        );
    }
    out.push_str("\n]");
    out
}

/// Loops table as a JSON array, mirroring `loops_csv` columns.
pub fn loops_json(loops: &[LoopStats]) -> String {
    let mut out = String::from("[");
    for (i, l) in loops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let lines = match &l.lines {
            Some((file, lo, hi)) => format!(
                "{{\"file\":\"{}\",\"lo\":{lo},\"hi\":{hi}}}",
                json_escape(file)
            ),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "\n  {{\"module\":{},\"function\":\"{}\",\"header_offset\":{},\"depth\":{},\
             \"iterations\":{},\"invocations\":{},\"body_insns\":{},\"total_insns\":{},\
             \"cycles\":{},\"samples\":{},\"insns_per_iter\":{:.2},\"cpi\":{},\"lines\":{lines}}}",
            l.module,
            json_escape(&l.function),
            l.header_offset,
            l.depth,
            l.iterations,
            l.invocations,
            l.body_insns,
            l.total_insns,
            l.cycles,
            l.samples,
            l.insns_per_iteration(),
            json_opt(l.cpi()),
        );
    }
    out.push_str("\n]");
    out
}

/// A stored profile's tables as one JSON document:
/// `{summary, modules, functions, loops}`.
pub fn tables_json(tables: &ProfileTables) -> String {
    let modules: Vec<String> = tables
        .modules
        .iter()
        .map(|m| format!("\"{}\"", json_escape(m)))
        .collect();
    format!(
        "{{\n\"summary\":{{\"mode\":\"{:?}\",\"wall_cycles\":{},\"total_cycles\":{},\
         \"total_insns\":{}}},\n\"modules\":[{}],\n\"functions\":{},\n\"loops\":{}\n}}\n",
        tables.mode,
        tables.wall_cycles,
        tables.total_cycles,
        tables.total_insns,
        modules.join(","),
        functions_json(&tables.functions),
        loops_json(&tables.loops),
    )
}

/// Quotes `s` as a YAML double-quoted scalar. JSON string escapes are a
/// subset of YAML's double-quoted escapes, so the JSON escaper is reused.
fn yaml_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A stored profile's tables as one YAML document with the same shape as
/// [`tables_json`]: `summary`, `modules`, `functions`, `loops`.
pub fn tables_yaml(tables: &ProfileTables) -> String {
    let mut out = String::from("---\n");
    let _ = writeln!(out, "summary:");
    let _ = writeln!(out, "  mode: {:?}", tables.mode);
    let _ = writeln!(out, "  wall_cycles: {}", tables.wall_cycles);
    let _ = writeln!(out, "  total_cycles: {}", tables.total_cycles);
    let _ = writeln!(out, "  total_insns: {}", tables.total_insns);
    if tables.modules.is_empty() {
        let _ = writeln!(out, "modules: []");
    } else {
        let _ = writeln!(out, "modules:");
        for m in &tables.modules {
            let _ = writeln!(out, "  - {}", yaml_str(m));
        }
    }
    if tables.functions.is_empty() {
        let _ = writeln!(out, "functions: []");
    } else {
        let _ = writeln!(out, "functions:");
        for f in &tables.functions {
            let _ = writeln!(out, "  - module: {}", f.module);
            let _ = writeln!(out, "    function: {}", yaml_str(&f.name));
            let _ = writeln!(out, "    self_cycles: {}", f.self_cycles);
            let _ = writeln!(out, "    incl_cycles: {}", f.incl_cycles);
            let _ = writeln!(out, "    self_samples: {}", f.self_samples);
            let _ = writeln!(out, "    self_insns: {}", f.self_insns);
            let _ = writeln!(out, "    incl_insns: {}", f.incl_insns);
            let _ = writeln!(out, "    ipc: {}", json_opt(f.ipc()));
            let _ = writeln!(out, "    cpi: {}", json_opt(f.cpi()));
        }
    }
    if tables.loops.is_empty() {
        let _ = writeln!(out, "loops: []");
    } else {
        let _ = writeln!(out, "loops:");
        for l in &tables.loops {
            let _ = writeln!(out, "  - module: {}", l.module);
            let _ = writeln!(out, "    function: {}", yaml_str(&l.function));
            let _ = writeln!(out, "    header_offset: {}", l.header_offset);
            let _ = writeln!(out, "    depth: {}", l.depth);
            let _ = writeln!(out, "    iterations: {}", l.iterations);
            let _ = writeln!(out, "    invocations: {}", l.invocations);
            let _ = writeln!(out, "    body_insns: {}", l.body_insns);
            let _ = writeln!(out, "    total_insns: {}", l.total_insns);
            let _ = writeln!(out, "    cycles: {}", l.cycles);
            let _ = writeln!(out, "    samples: {}", l.samples);
            let _ = writeln!(out, "    insns_per_iter: {:.2}", l.insns_per_iteration());
            let _ = writeln!(out, "    cpi: {}", json_opt(l.cpi()));
            match &l.lines {
                Some((file, lo, hi)) => {
                    let _ = writeln!(out, "    lines:");
                    let _ = writeln!(out, "      file: {}", yaml_str(file));
                    let _ = writeln!(out, "      lo: {lo}");
                    let _ = writeln!(out, "      hi: {hi}");
                }
                None => {
                    let _ = writeln!(out, "    lines: null");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_optiwise, OptiwiseConfig};
    use wiser_isa::assemble;

    fn analysis() -> Analysis {
        let module = assemble(
            "csv",
            r#"
            .func helper
                addi x0, x1, 1
                ret
            .endfunc
            .func _start global
            .loc "c.c" 2
                li x8, 500
                li x9, 0
            loop:
                call helper
                subi x8, x8, 1
                bne x8, x9, loop
                li x1, 0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        run_optiwise(&[module], &OptiwiseConfig::default())
            .unwrap()
            .analysis
    }

    /// Minimal RFC-4180-ish field counter for the test.
    fn csv_fields(line: &str) -> usize {
        let mut fields = 1;
        let mut in_quotes = false;
        for c in line.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        fields
    }

    #[test]
    fn csv_outputs_parse_as_tables() {
        let a = analysis();
        for csv in [
            functions_csv(&a),
            loops_csv(&a),
            annotate_csv(&a, 0, "_start"),
            blocks_csv(&a),
        ] {
            let mut lines = csv.lines();
            let header_cols = csv_fields(lines.next().unwrap());
            let mut rows = 0;
            for line in lines {
                assert_eq!(csv_fields(line), header_cols, "{line}");
                rows += 1;
            }
            assert!(rows >= 1);
        }
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("q\"q"), "\"q\"\"q\"");
        // Embedded line breaks must be quoted or the row splits mid-record.
        assert_eq!(esc("a\nb"), "\"a\nb\"");
        assert_eq!(esc("a\rb"), "\"a\rb\"");
        assert_eq!(esc("a\r\nb"), "\"a\r\nb\"");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("q\"q"), "q\\\"q");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\t"), "a\\nb\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn yaml_export_mirrors_tables() {
        let a = analysis();
        let t = ProfileTables::from_analysis(&a);
        let doc = tables_yaml(&t);
        assert!(doc.starts_with("---\n"), "{doc}");
        assert!(doc.contains("summary:"), "{doc}");
        assert!(doc.contains("  - \"csv\""), "{doc}");
        assert!(doc.contains("function: \"_start\""), "{doc}");
        // One `function:` entry per function row, same cardinality as JSON.
        assert_eq!(
            doc.matches("\n    function: ").count(),
            t.functions.len() + t.loops.len(),
        );
        // Deterministic: rendering twice yields identical bytes.
        assert_eq!(doc, tables_yaml(&t));
    }

    #[test]
    fn json_exports_mirror_tables() {
        let a = analysis();
        let t = ProfileTables::from_analysis(&a);

        let funcs = functions_json(&t.functions);
        assert!(funcs.starts_with('[') && funcs.ends_with(']'), "{funcs}");
        assert!(funcs.contains("\"function\":\"_start\""), "{funcs}");
        assert!(funcs.contains("\"cpi\":"), "{funcs}");

        let loops = loops_json(&t.loops);
        assert!(loops.contains("\"file\":\"c.c\""), "{loops}");
        assert!(loops.contains("\"iterations\":"), "{loops}");

        let doc = tables_json(&t);
        assert!(doc.contains("\"summary\""), "{doc}");
        assert!(doc.contains("\"modules\":[\"csv\"]"), "{doc}");
        // Rows match the table lengths: one object per row.
        assert_eq!(
            funcs.matches("\"function\"").count(),
            t.functions.len(),
        );
    }
}
