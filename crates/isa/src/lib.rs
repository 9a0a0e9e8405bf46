//! # wiser-isa
//!
//! The instruction set, binary module format, assembler and disassembler
//! underpinning the OptiWISE reproduction (CGO 2024).
//!
//! OptiWISE profiles *binaries*: it samples them with `perf`, instruments
//! them with DynamoRIO, and disassembles them with `objdump`. This crate
//! provides the equivalent binary substrate — a 64-bit RISC-style ISA with a
//! fixed 8-byte encoding, an ELF-like [`Module`] format (sections, symbols,
//! imports, relocations, line table), a two-pass assembler (both a
//! [programmatic builder](asm::Asm) and a [text dialect](assemble)), and a
//! symbolizing [`Disassembly`].
//!
//! ## Example
//!
//! ```
//! use wiser_isa::{assemble, Disassembly};
//!
//! let module = assemble(
//!     "hello",
//!     r#"
//!     .func _start global
//!         li x1, 6
//!         li x2, 7
//!         mul x0, x1, x2
//!         li x0, 0
//!         syscall          ; exit
//!     .endfunc
//!     .entry _start
//!     "#,
//! )?;
//! let dis = Disassembly::of_module(&module)?;
//! assert!(dis.to_string().contains("mul x0, x1, x2"));
//! # Ok::<(), wiser_isa::IsaError>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
mod disasm;
mod encode;
mod error;
mod insn;
mod module;
mod reg;

pub use asm::module_to_text;
pub use asm::text::assemble;
pub use disasm::{format_insn, symbolized, DisasmLine, Disassembly};
pub use encode::{decode_at, decode_insn, encode_insn};
pub use error::IsaError;
pub use insn::{AluOp, Cond, CtiKind, FpCmp, FpOp, Insn, Scale, Width, INSN_BYTES};
pub use module::{LineEntry, Module, Reloc, Section, Symbol, SymbolKind};
pub use reg::{Fpr, Gpr, NUM_FPRS, NUM_GPRS};
