//! Text assembly front-end.
//!
//! Parses a line-oriented assembly dialect onto the [`Asm`] builder. The
//! syntax (one statement per line, `;` or `#` comments):
//!
//! ```text
//! .module name              ; optional module name override
//! .import qsort             ; symbol resolved by the loader (PLT)
//! .entry _start
//! .func name [global]      ; ... .endfunc
//! .loc "file.c" 42         ; source-line annotation
//!
//! label:
//!     li   x1, 100
//!     lui  x1, 0x10
//!     la   x1, table        ; absolute address, relocated at load
//!     mov  x1, x2
//!     add  x1, x2, x3       ; sub mul div udiv rem urem and or xor shl shr sar
//!     addi x1, x2, -4       ; immediate forms: subi muli divi ... (same ops + i)
//!     set.lt x1, x2, x3     ; conditions: eq ne lt ge ltu geu
//!     cmovz  x1, x2, x3     ; x1 = x3==0 ? x2 : x1
//!     cmovnz x1, x2, x3
//!     ld.8  x1, [x2+16]     ; widths 1, 4, 8; also ldx.4 x1, [x2+x3*4+8]
//!     st.4  x1, [x2]        ; stores: value first
//!     prefetch [x1+64]
//!     push x1               ; pop x1
//!     jmp  label            ; beq/bne/blt/bge/bltu/bgeu x1, x2, label
//!     call func             ; callr x1 ; jr x1 ; ret ; syscall ; nop
//!     fadd f0, f1, f2       ; fsub fmul fdiv fmin fmax
//!     fsqrt f0, f1          ; fneg, fmov
//!     feq  x1, f0, f1       ; flt, fle
//!     fcvtif f0, x1         ; fcvtfi x1, f0
//!     fld  f0, [x1+8]       ; fst f0, [x1] ; fldx/fstx f0, [x1+x2*8]
//!
//! .data
//! table:  .u64 1, 2, 3      ; also .u32, .u8, .f64, .zero N, .ascii "s"
//! .bss
//! buf:    .space 4096
//! ```

use crate::asm::builder::Asm;
use crate::error::IsaError;
use crate::insn::{AluOp, Cond, FpCmp, FpOp, Insn, Scale, Width};
use crate::module::Module;
use crate::reg::{Fpr, Gpr};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Text,
    Data,
    Bss,
}

/// Assembles text-syntax source into a [`Module`].
///
/// # Errors
///
/// Returns [`IsaError::Parse`] with a line number for syntax errors, and the
/// builder's resolution errors (undefined symbols, unbound labels) otherwise.
///
/// # Examples
///
/// ```
/// let src = r#"
///     .func _start global
///         li x1, 2
///         li x2, 3
///         add x0, x1, x2
///         li x0, 0
///         syscall
///     .endfunc
///     .entry _start
/// "#;
/// let module = wiser_isa::assemble("demo", src)?;
/// assert_eq!(module.insn_count(), 5);
/// # Ok::<(), wiser_isa::IsaError>(())
/// ```
pub fn assemble(name: &str, source: &str) -> Result<Module, IsaError> {
    let mut asm = Asm::new(name);
    let mut mode = Mode::Text;
    // Pending label in data/bss mode: becomes the name of the next object.
    let mut pending_data_label: Option<String> = None;

    for (line_idx, raw_line) in source.lines().enumerate() {
        let lineno = line_idx as u32 + 1;
        let err = |message: String| IsaError::Parse {
            line: lineno,
            message,
        };
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }

        let mut rest = line;
        // Labels (possibly several) at line start.
        while let Some(colon) = find_label_colon(rest) {
            let label = rest[..colon].trim();
            if !is_ident(label) {
                return Err(err(format!("bad label name `{label}`")));
            }
            match mode {
                Mode::Text => {
                    let l = asm.named_label(label);
                    asm.bind(l);
                }
                Mode::Data | Mode::Bss => {
                    if pending_data_label.is_some() {
                        return Err(err("two labels before one data object".into()));
                    }
                    pending_data_label = Some(label.to_string());
                }
            }
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let (head, tail) = split_head(rest);
        if let Some(directive) = head.strip_prefix('.') {
            match directive {
                "text" => mode = Mode::Text,
                "data" => mode = Mode::Data,
                "bss" => mode = Mode::Bss,
                "module" => { /* name fixed by caller; accepted for symmetry */ }
                "import" => {
                    for sym in tail.split(',') {
                        let sym = sym.trim();
                        if !is_ident(sym) {
                            return Err(err(format!("bad import `{sym}`")));
                        }
                        asm.import(sym);
                    }
                }
                "entry" => {
                    let sym = tail.trim();
                    if !is_ident(sym) {
                        return Err(err(format!("bad entry symbol `{sym}`")));
                    }
                    asm.set_entry(sym);
                }
                "func" => {
                    mode = Mode::Text;
                    let mut parts = tail.split_whitespace();
                    let name = parts
                        .next()
                        .ok_or_else(|| err(".func needs a name".into()))?;
                    let global = match parts.next() {
                        None => false,
                        Some("global") => true,
                        Some(other) => {
                            return Err(err(format!("unexpected `{other}` after .func")))
                        }
                    };
                    if !is_ident(name) {
                        return Err(err(format!("bad function name `{name}`")));
                    }
                    asm.func(name, global);
                    // A function name is also a branch target.
                    let l = asm.named_label(name);
                    asm.bind(l);
                }
                "endfunc" => asm.endfunc(),
                "loc" => {
                    let (file, line) = parse_loc(tail)
                        .ok_or_else(|| err("expected `.loc \"file\" line`".to_string()))?;
                    asm.loc(&file, line);
                }
                "u8" | "u32" | "u64" | "f64" | "zero" | "ascii" | "space" => {
                    emit_data(&mut asm, mode, &mut pending_data_label, directive, tail)
                        .map_err(err)?;
                }
                other => return Err(err(format!("unknown directive `.{other}`"))),
            }
            continue;
        }

        if mode != Mode::Text {
            return Err(err(format!("instruction `{head}` outside .text section")));
        }
        parse_insn(&mut asm, head, tail).map_err(err)?;
    }

    asm.finish()
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ';' | '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the colon ending a leading label, skipping strings and operands.
fn find_label_colon(s: &str) -> Option<usize> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        if c.is_alphanumeric() || c == '_' || c == '.' {
            end = i + c.len_utf8();
        } else {
            break;
        }
    }
    if end == 0 {
        return None;
    }
    let rest = &s[end..];
    let trimmed = rest.trim_start();
    if let Some(stripped) = trimmed.strip_prefix(':') {
        let _ = stripped;
        // Position of ':' in the original string.
        Some(end + (rest.len() - trimmed.len()))
    } else {
        None
    }
}

fn split_head(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
}

fn parse_loc(tail: &str) -> Option<(String, u32)> {
    let tail = tail.trim();
    let rest = tail.strip_prefix('"')?;
    let close = rest.find('"')?;
    let file = rest[..close].to_string();
    let line: u32 = rest[close + 1..].trim().parse().ok()?;
    Some((file, line))
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -value } else { value })
}

fn parse_imm32(s: &str) -> Result<i32, String> {
    let v = parse_int(s).ok_or_else(|| format!("bad immediate `{s}`"))?;
    if v < i32::MIN as i64 || v > u32::MAX as i64 {
        return Err(format!("immediate `{s}` out of 32-bit range"));
    }
    Ok(v as u32 as i32)
}

fn emit_data(
    asm: &mut Asm,
    mode: Mode,
    pending: &mut Option<String>,
    directive: &str,
    tail: &str,
) -> Result<(), String> {
    let name = pending
        .take()
        .unwrap_or_else(|| format!("__anon_{}", asm.here()));
    match (mode, directive) {
        (Mode::Bss, "space") | (Mode::Bss, "zero") => {
            let size = parse_int(tail).ok_or_else(|| format!("bad size `{tail}`"))? as u64;
            asm.bss_object(name, size, false);
            Ok(())
        }
        (Mode::Data, "u8") => {
            let bytes = parse_list(tail)?
                .into_iter()
                .map(|v| v as u8)
                .collect::<Vec<_>>();
            asm.data_object(name, &bytes, false);
            Ok(())
        }
        (Mode::Data, "u32") => {
            let bytes: Vec<u8> = parse_list(tail)?
                .into_iter()
                .flat_map(|v| (v as u32).to_le_bytes())
                .collect();
            asm.data_object(name, &bytes, false);
            Ok(())
        }
        (Mode::Data, "u64") => {
            let values: Vec<u64> = parse_list(tail)?.into_iter().map(|v| v as u64).collect();
            asm.data_u64s(name, &values, false);
            Ok(())
        }
        (Mode::Data, "f64") => {
            let mut values = Vec::new();
            for part in tail.split(',') {
                let v: f64 = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad float `{part}`"))?;
                values.push(v);
            }
            asm.data_f64s(name, &values, false);
            Ok(())
        }
        (Mode::Data, "zero") => {
            let size = parse_int(tail).ok_or_else(|| format!("bad size `{tail}`"))? as usize;
            asm.data_object(name, &vec![0u8; size], false);
            Ok(())
        }
        (Mode::Data, "ascii") => {
            let t = tail.trim();
            let body = t
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| format!("bad string `{t}`"))?;
            asm.data_object(name, body.as_bytes(), false);
            Ok(())
        }
        _ => Err(format!("directive `.{directive}` not valid here")),
    }
}

fn parse_list(tail: &str) -> Result<Vec<i64>, String> {
    tail.split(',')
        .map(|p| parse_int(p).ok_or_else(|| format!("bad value `{p}`")))
        .collect()
}

struct Operands<'a> {
    parts: Vec<&'a str>,
}

impl<'a> Operands<'a> {
    fn new(tail: &'a str) -> Operands<'a> {
        // Split on commas not inside brackets.
        let mut parts = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, c) in tail.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    parts.push(tail[start..i].trim());
                    start = i + 1;
                }
                _ => {}
            }
        }
        let last = tail[start..].trim();
        if !last.is_empty() {
            parts.push(last);
        }
        Operands { parts }
    }

    fn count(&self, n: usize, insn: &str) -> Result<(), String> {
        if self.parts.len() != n {
            return Err(format!(
                "`{insn}` expects {n} operands, found {}",
                self.parts.len()
            ));
        }
        Ok(())
    }

    fn gpr(&self, i: usize) -> Result<Gpr, String> {
        self.parts[i]
            .parse()
            .map_err(|_| format!("bad register `{}`", self.parts[i]))
    }

    fn fpr(&self, i: usize) -> Result<Fpr, String> {
        self.parts[i]
            .parse()
            .map_err(|_| format!("bad fp register `{}`", self.parts[i]))
    }

    fn imm(&self, i: usize) -> Result<i32, String> {
        parse_imm32(self.parts[i])
    }

    fn mem(&self, i: usize) -> Result<MemOperand, String> {
        parse_mem(self.parts[i])
    }

    fn target(&self, i: usize) -> Result<&'a str, String> {
        let t = self.parts[i];
        if is_ident(t) {
            Ok(t)
        } else {
            Err(format!("bad branch target `{t}`"))
        }
    }
}

/// Parses `sym`, `sym+imm` or `sym-imm` (the `la` operand form).
fn parse_symbol_addend(s: &str) -> Result<(&str, i64), String> {
    let s = s.trim();
    let split = s
        .char_indices()
        .find(|&(i, c)| (c == '+' || c == '-') && i > 0);
    let (sym, addend) = match split {
        Some((i, _)) => {
            let addend =
                parse_int(&s[i..]).ok_or_else(|| format!("bad symbol offset `{}`", &s[i..]))?;
            (&s[..i], addend)
        }
        None => (s, 0),
    };
    if !is_ident(sym) {
        return Err(format!("bad symbol `{sym}`"));
    }
    Ok((sym, addend))
}

struct MemOperand {
    base: Gpr,
    index: Option<(Gpr, Scale)>,
    disp: i32,
}

fn parse_mem(s: &str) -> Result<MemOperand, String> {
    let body = s
        .trim()
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("expected memory operand `[...]`, found `{s}`"))?;
    let mut base: Option<Gpr> = None;
    let mut index: Option<(Gpr, Scale)> = None;
    let mut disp: i64 = 0;
    // Normalize `a-b` into `a+-b` then split on '+'.
    let normalized = body.replace('-', "+-");
    for term in normalized.split('+') {
        let term = term.trim();
        if term.is_empty() {
            continue;
        }
        if let Some((reg_part, scale_part)) = term.split_once('*') {
            let reg: Gpr = reg_part
                .trim()
                .parse()
                .map_err(|_| format!("bad index register `{reg_part}`"))?;
            let factor =
                parse_int(scale_part).ok_or_else(|| format!("bad scale `{scale_part}`"))?;
            let scale = Scale::from_factor(factor as u64)
                .ok_or_else(|| format!("scale must be 1, 2, 4 or 8, found `{scale_part}`"))?;
            if index.is_some() {
                return Err("two index terms in memory operand".into());
            }
            index = Some((reg, scale));
        } else if let Ok(reg) = term.parse::<Gpr>() {
            if base.is_none() {
                base = Some(reg);
            } else if index.is_none() {
                index = Some((reg, Scale::S1));
            } else {
                return Err("too many registers in memory operand".into());
            }
        } else if let Some(v) = parse_int(term) {
            disp += v;
        } else {
            return Err(format!("bad memory operand term `{term}`"));
        }
    }
    let base = base.ok_or_else(|| "memory operand needs a base register".to_string())?;
    if disp < i32::MIN as i64 || disp > i32::MAX as i64 {
        return Err("displacement out of range".into());
    }
    Ok(MemOperand {
        base,
        index,
        disp: disp as i32,
    })
}

fn width_suffix(mnemonic: &str) -> Result<(&str, Width), String> {
    if let Some(stem) = mnemonic.strip_suffix(".8") {
        Ok((stem, Width::W8))
    } else if let Some(stem) = mnemonic.strip_suffix(".4") {
        Ok((stem, Width::W4))
    } else if let Some(stem) = mnemonic.strip_suffix(".1") {
        Ok((stem, Width::W1))
    } else {
        Err(format!("`{mnemonic}` needs a width suffix (.1/.4/.8)"))
    }
}

fn alu_op(stem: &str) -> Option<AluOp> {
    AluOp::all().into_iter().find(|op| op.mnemonic() == stem)
}

fn fp_op(stem: &str) -> Option<FpOp> {
    FpOp::all().into_iter().find(|op| op.mnemonic() == stem)
}

fn cond_suffix(stem: &str) -> Option<Cond> {
    Cond::all().into_iter().find(|c| c.mnemonic() == stem)
}

fn parse_insn(asm: &mut Asm, mnemonic: &str, tail: &str) -> Result<(), String> {
    let ops = Operands::new(tail);
    match mnemonic {
        "nop" => {
            ops.count(0, mnemonic)?;
            asm.nop();
        }
        "ret" => {
            ops.count(0, mnemonic)?;
            asm.ret();
        }
        "syscall" => {
            ops.count(0, mnemonic)?;
            asm.syscall();
        }
        "li" => {
            ops.count(2, mnemonic)?;
            asm.li(ops.gpr(0)?, ops.imm(1)?);
        }
        "lui" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Lui {
                rd: ops.gpr(0)?,
                imm: ops.imm(1)?,
            });
        }
        "la" => {
            ops.count(2, mnemonic)?;
            let (sym, addend) = parse_symbol_addend(ops.parts[1])?;
            asm.la_off(ops.gpr(0)?, sym, addend);
        }
        "mov" => {
            ops.count(2, mnemonic)?;
            asm.mov(ops.gpr(0)?, ops.gpr(1)?);
        }
        "cmovz" | "cmovnz" => {
            ops.count(3, mnemonic)?;
            asm.emit(Insn::Cmov {
                cond: if mnemonic == "cmovz" {
                    Cond::Eq
                } else {
                    Cond::Ne
                },
                rd: ops.gpr(0)?,
                rs: ops.gpr(1)?,
                rc: ops.gpr(2)?,
            });
        }
        "push" => {
            ops.count(1, mnemonic)?;
            asm.push(ops.gpr(0)?);
        }
        "pop" => {
            ops.count(1, mnemonic)?;
            asm.pop(ops.gpr(0)?);
        }
        "jmp" => {
            ops.count(1, mnemonic)?;
            let t = ops.target(0)?;
            let label = asm.named_label(t);
            asm.jmp(label);
        }
        "call" => {
            ops.count(1, mnemonic)?;
            asm.call(ops.target(0)?);
        }
        "jr" => {
            ops.count(1, mnemonic)?;
            asm.jr(ops.gpr(0)?);
        }
        "callr" => {
            ops.count(1, mnemonic)?;
            asm.callr(ops.gpr(0)?);
        }
        "prefetch" => {
            ops.count(1, mnemonic)?;
            let m = ops.mem(0)?;
            if m.index.is_some() {
                return Err("prefetch takes `[base+disp]` only".into());
            }
            asm.emit(Insn::Prefetch {
                base: m.base,
                disp: m.disp,
            });
        }
        "fsqrt" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Fsqrt {
                fd: ops.fpr(0)?,
                fs: ops.fpr(1)?,
            });
        }
        "fneg" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Fneg {
                fd: ops.fpr(0)?,
                fs: ops.fpr(1)?,
            });
        }
        "fmov" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Fmov {
                fd: ops.fpr(0)?,
                fs: ops.fpr(1)?,
            });
        }
        "fcvtif" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Fcvtif {
                fd: ops.fpr(0)?,
                rs: ops.gpr(1)?,
            });
        }
        "fcvtfi" => {
            ops.count(2, mnemonic)?;
            asm.emit(Insn::Fcvtfi {
                rd: ops.gpr(0)?,
                fs: ops.fpr(1)?,
            });
        }
        "feq" | "flt" | "fle" => {
            ops.count(3, mnemonic)?;
            let cmp = match mnemonic {
                "feq" => FpCmp::Feq,
                "flt" => FpCmp::Flt,
                _ => FpCmp::Fle,
            };
            asm.fcmp(cmp, ops.gpr(0)?, ops.fpr(1)?, ops.fpr(2)?);
        }
        "fld" => {
            ops.count(2, mnemonic)?;
            let m = ops.mem(1)?;
            match m.index {
                None => asm.emit(Insn::Fld {
                    fd: ops.fpr(0)?,
                    base: m.base,
                    disp: m.disp,
                }),
                Some((index, scale)) => asm.emit(Insn::Fldx {
                    fd: ops.fpr(0)?,
                    base: m.base,
                    index,
                    scale,
                    disp: m.disp,
                }),
            }
        }
        "fst" => {
            ops.count(2, mnemonic)?;
            let m = ops.mem(1)?;
            match m.index {
                None => asm.emit(Insn::Fst {
                    fs: ops.fpr(0)?,
                    base: m.base,
                    disp: m.disp,
                }),
                Some((index, scale)) => asm.emit(Insn::Fstx {
                    fs: ops.fpr(0)?,
                    base: m.base,
                    index,
                    scale,
                    disp: m.disp,
                }),
            }
        }
        _ => return parse_composite(asm, mnemonic, &ops),
    }
    Ok(())
}

/// Handles mnemonic families: ALU (`add`/`addi`), branches (`beq`),
/// conditional sets (`set.lt`), FP arithmetic, and width-suffixed memory ops.
fn parse_composite(asm: &mut Asm, mnemonic: &str, ops: &Operands<'_>) -> Result<(), String> {
    // set.<cond>
    if let Some(stem) = mnemonic.strip_prefix("set.") {
        let cond = cond_suffix(stem).ok_or_else(|| format!("unknown condition `{stem}`"))?;
        ops.count(3, mnemonic)?;
        asm.emit(Insn::SetCond {
            cond,
            rd: ops.gpr(0)?,
            rs1: ops.gpr(1)?,
            rs2: ops.gpr(2)?,
        });
        return Ok(());
    }
    // b<cond>
    if let Some(stem) = mnemonic.strip_prefix('b') {
        if let Some(cond) = cond_suffix(stem) {
            ops.count(3, mnemonic)?;
            let t = ops.target(2)?;
            let label = asm.named_label(t);
            asm.b(cond, ops.gpr(0)?, ops.gpr(1)?, label);
            return Ok(());
        }
    }
    // ld/st/ldx/stx with width suffix
    if mnemonic.starts_with("ld") || mnemonic.starts_with("st") {
        let (stem, width) = width_suffix(mnemonic)?;
        ops.count(2, mnemonic)?;
        let m = ops.mem(1)?;
        match (stem, m.index) {
            ("ld" | "ldx", None) => asm.ld(width, ops.gpr(0)?, m.base, m.disp),
            ("ld" | "ldx", Some((index, scale))) => {
                asm.ldx(width, ops.gpr(0)?, m.base, index, scale, m.disp)
            }
            ("st" | "stx", None) => asm.st(width, ops.gpr(0)?, m.base, m.disp),
            ("st" | "stx", Some((index, scale))) => {
                asm.stx(width, ops.gpr(0)?, m.base, index, scale, m.disp)
            }
            _ => return Err(format!("unknown instruction `{mnemonic}`")),
        }
        return Ok(());
    }
    // FP arithmetic
    if let Some(op) = fp_op(mnemonic) {
        ops.count(3, mnemonic)?;
        asm.fp(op, ops.fpr(0)?, ops.fpr(1)?, ops.fpr(2)?);
        return Ok(());
    }
    // ALU immediate (trailing `i`)
    if let Some(stem) = mnemonic.strip_suffix('i') {
        if let Some(op) = alu_op(stem) {
            ops.count(3, mnemonic)?;
            asm.alu_imm(op, ops.gpr(0)?, ops.gpr(1)?, ops.imm(2)?);
            return Ok(());
        }
    }
    // ALU register
    if let Some(op) = alu_op(mnemonic) {
        ops.count(3, mnemonic)?;
        asm.alu(op, ops.gpr(0)?, ops.gpr(1)?, ops.gpr(2)?);
        return Ok(());
    }
    Err(format!("unknown instruction `{mnemonic}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_smoke() {
        let src = r#"
            ; a tiny program
            .func _start global
                li x1, 10
                li x2, 0
            loop:
                addi x2, x2, 1
                bne x2, x1, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let m = assemble("smoke", src).unwrap();
        assert_eq!(m.insn_count(), 6);
        match m.insn_at(24).unwrap() {
            Insn::B { cond, target, .. } => {
                assert_eq!(cond, Cond::Ne);
                assert_eq!(target, 16);
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn memory_operands() {
        let src = r#"
            .func f
                ld.8 x1, [x2]
                ld.4 x1, [x2+16]
                ld.1 x1, [x2-8]
                ldx.4 x3, [x4+x5*4+12]
                st.8 x1, [sp]
                stx.8 x1, [x2+x3*8]
                fld f0, [x1+8]
                fst f0, [x1+x2*8]
                prefetch [x1+64]
                ret
            .endfunc
        "#;
        let m = assemble("mem", src).unwrap();
        assert_eq!(m.insn_count(), 10);
        match m.insn_at(24).unwrap() {
            Insn::Ldx {
                scale, disp, width, ..
            } => {
                assert_eq!(scale, Scale::S4);
                assert_eq!(disp, 12);
                assert_eq!(width, Width::W4);
            }
            other => panic!("unexpected {other:?}"),
        }
        match m.insn_at(56).unwrap() {
            Insn::Fstx { scale, .. } => assert_eq!(scale, Scale::S8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn data_and_bss() {
        let src = r#"
            .data
            table: .u64 1, 2, 3
            msg:   .ascii "hi"
            pad:   .zero 6
            vals:  .f64 1.5, -2.5
            .bss
            buf:   .space 100
            .text
            .func _start global
                la x1, table
                la x2, buf
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let m = assemble("data", src).unwrap();
        assert_eq!(m.symbol("table").unwrap().size, 24);
        assert_eq!(m.symbol("msg").unwrap().size, 2);
        assert_eq!(m.symbol("buf").unwrap().size, 100);
        assert_eq!(m.relocs.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "\n\n    bogus x1, x2\n";
        match assemble("err", src) {
            Err(IsaError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn import_and_call() {
        let src = r#"
            .import helper
            .func _start global
                call helper
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let m = assemble("imp", src).unwrap();
        assert_eq!(m.imports, vec!["helper".to_string()]);
        assert_eq!(m.relocs.len(), 1);
    }

    #[test]
    fn loc_annotations() {
        let src = r#"
            .func f
            .loc "kernel.c" 5
                nop
            .loc "kernel.c" 6
                nop
                ret
            .endfunc
        "#;
        let m = assemble("loc", src).unwrap();
        assert_eq!(m.line_at(0), Some(("kernel.c", 5)));
        assert_eq!(m.line_at(8), Some(("kernel.c", 6)));
    }

    #[test]
    fn all_branch_conditions() {
        let src = r#"
            .func f
            t:  beq x1, x2, t
                bne x1, x2, t
                blt x1, x2, t
                bge x1, x2, t
                bltu x1, x2, t
                bgeu x1, x2, t
                ret
            .endfunc
        "#;
        let m = assemble("b", src).unwrap();
        assert_eq!(m.insn_count(), 7);
    }

    #[test]
    fn cmov_and_setcond() {
        let src = r#"
            .func f
                cmovz x1, x2, x3
                cmovnz x1, x2, x3
                set.lt x1, x2, x3
                set.geu x1, x2, x3
                ret
            .endfunc
        "#;
        let m = assemble("c", src).unwrap();
        assert_eq!(m.insn_count(), 5);
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(assemble("x", ".bogus 1").is_err());
    }

    #[test]
    fn insn_outside_text_rejected() {
        assert!(assemble("x", ".data\n add x1, x2, x3").is_err());
    }
}
