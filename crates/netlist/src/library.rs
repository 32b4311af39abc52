//! Standard-cell library model.
//!
//! The split-manufacturing paper builds its layouts on the Nangate 45 nm
//! Open Cell Library. We reproduce the subset that matters for the flow:
//! combinational gates with one output, with per-cell area, pin capacitance,
//! drive resistance, intrinsic delay and leakage numbers in the same ballpark
//! as the published Nangate data. These values feed the placement (area),
//! timing (RC delay) and power (C·V²·f + leakage) engines.

use crate::id::LibCellId;
use crate::NetlistError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Boolean function computed by a library cell.
///
/// All functions are n-ary where that makes sense; [`GateFn::Buf`] and
/// [`GateFn::Inv`] are strictly unary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateFn {
    /// Identity (buffer).
    Buf,
    /// Negation (inverter).
    Inv,
    /// Logical AND of all inputs.
    And,
    /// Negated AND.
    Nand,
    /// Logical OR of all inputs.
    Or,
    /// Negated OR.
    Nor,
    /// Exclusive OR (parity) of all inputs.
    Xor,
    /// Negated exclusive OR.
    Xnor,
}

impl GateFn {
    /// Evaluates the function over 64 patterns at once (one per bit lane).
    ///
    /// `inputs` holds one 64-bit word per input pin.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[inline]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        let [word] = self.eval_block(inputs.iter().map(std::array::from_ref));
        word
    }

    /// Evaluates the function over a block of `N` words per input pin
    /// (`64·N` patterns), word by word: output word `k` is
    /// [`GateFn::eval_word`] of every input's word `k`. This is the one
    /// definition of the gate functions; `eval_word` is its one-word
    /// form. [`GateFn::Buf`] and [`GateFn::Inv`] read only the first
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    #[inline]
    pub fn eval_block<'a, const N: usize>(
        self,
        mut inputs: impl Iterator<Item = &'a [u64; N]>,
    ) -> [u64; N] {
        let mut acc = *inputs.next().expect("gate evaluated with no inputs");
        match self {
            GateFn::Buf | GateFn::Inv => {}
            GateFn::And | GateFn::Nand => fold_block(&mut acc, inputs, |a, w| a & w),
            GateFn::Or | GateFn::Nor => fold_block(&mut acc, inputs, |a, w| a | w),
            GateFn::Xor | GateFn::Xnor => fold_block(&mut acc, inputs, |a, w| a ^ w),
        }
        if matches!(
            self,
            GateFn::Inv | GateFn::Nand | GateFn::Nor | GateFn::Xnor
        ) {
            for a in &mut acc {
                *a = !*a;
            }
        }
        acc
    }

    /// Returns the canonical upper-case name used in `.bench` files.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateFn::Buf => "BUFF",
            GateFn::Inv => "NOT",
            GateFn::And => "AND",
            GateFn::Nand => "NAND",
            GateFn::Or => "OR",
            GateFn::Nor => "NOR",
            GateFn::Xor => "XOR",
            GateFn::Xnor => "XNOR",
        }
    }

    /// Parses a `.bench`-style gate keyword (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownLibCell`] if the keyword is not a
    /// recognized gate function.
    pub fn from_bench_name(name: &str) -> Result<Self, NetlistError> {
        match name.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => Ok(GateFn::Buf),
            "NOT" | "INV" => Ok(GateFn::Inv),
            "AND" => Ok(GateFn::And),
            "NAND" => Ok(GateFn::Nand),
            "OR" => Ok(GateFn::Or),
            "NOR" => Ok(GateFn::Nor),
            "XOR" => Ok(GateFn::Xor),
            "XNOR" => Ok(GateFn::Xnor),
            other => Err(NetlistError::UnknownLibCell(other.to_string())),
        }
    }

    /// `true` for functions that only accept exactly one input.
    pub fn is_unary(self) -> bool {
        matches!(self, GateFn::Buf | GateFn::Inv)
    }
}

/// Folds every remaining input block into `acc`, word by word.
#[inline(always)]
fn fold_block<'a, const N: usize>(
    acc: &mut [u64; N],
    inputs: impl Iterator<Item = &'a [u64; N]>,
    op: impl Fn(u64, u64) -> u64,
) {
    for block in inputs {
        for (a, &w) in acc.iter_mut().zip(block) {
            *a = op(*a, w);
        }
    }
}

impl fmt::Display for GateFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// One standard-cell definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibCell {
    /// Library name, e.g. `"NAND2_X1"`.
    pub name: String,
    /// Boolean function.
    pub function: GateFn,
    /// Number of input pins (1–4 in the shipped library).
    pub num_inputs: usize,
    /// Footprint area in µm².
    pub area_um2: f64,
    /// Capacitance of each input pin in fF.
    pub input_cap_ff: f64,
    /// Equivalent output drive resistance in kΩ (lower = stronger drive).
    pub drive_res_kohm: f64,
    /// Intrinsic (unloaded) delay in ps.
    pub intrinsic_delay_ps: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
}

impl LibCell {
    /// Gate delay in ps for a given capacitive load in fF, using the linear
    /// delay model `d = intrinsic + R·C_load`.
    #[inline]
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_res_kohm * load_ff
    }

    /// Relative drive strength (X1 = 1.0), inferred from drive resistance.
    pub fn drive_strength(&self) -> f64 {
        // X1 inverter reference resistance in this library.
        const R_X1: f64 = 8.0;
        R_X1 / self.drive_res_kohm
    }
}

/// A collection of [`LibCell`] definitions with name lookup.
///
/// Use [`Library::nangate45`] for the library the whole reproduction runs
/// on; [`Library::new`] exists for tests and custom technologies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Library {
    pub(crate) name: String,
    pub(crate) cells: Vec<LibCell>,
    #[serde(skip)]
    by_name: HashMap<String, LibCellId>,
}

impl Library {
    /// Creates an empty library with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The library name (e.g. `"nangate45"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a cell definition, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists: library cell
    /// names are unique by construction.
    pub fn add_cell(&mut self, cell: LibCell) -> LibCellId {
        let id = LibCellId::new(self.cells.len());
        let prev = self.by_name.insert(cell.name.clone(), id);
        assert!(prev.is_none(), "duplicate library cell `{}`", cell.name);
        self.cells.push(cell);
        id
    }

    /// Looks a cell up by exact name.
    pub fn find(&self, name: &str) -> Option<LibCellId> {
        self.by_name.get(name).copied()
    }

    /// Returns the definition behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[inline]
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// Number of cell definitions.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LibCellId, &LibCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (LibCellId::new(i), c))
    }

    /// Picks the cheapest cell implementing `function` with exactly
    /// `fanin` inputs at drive strength X1.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadFanin`] when no such cell exists (the
    /// builder decomposes wide gates before calling this).
    pub fn cell_for(&self, function: GateFn, fanin: usize) -> Result<LibCellId, NetlistError> {
        self.iter()
            .filter(|(_, c)| c.function == function && c.num_inputs == fanin)
            .min_by(|a, b| a.1.area_um2.total_cmp(&b.1.area_um2))
            .map(|(id, _)| id)
            .ok_or_else(|| NetlistError::BadFanin {
                function: function.to_string(),
                fanin,
            })
    }

    /// Builds the Nangate-45-like library used throughout the reproduction.
    ///
    /// Numbers are representative of the published Nangate FreePDK45 data:
    /// site height 1.4 µm, X1 inverter ≈ 0.532 µm², input caps around 1 fF,
    /// intrinsic delays of a few ps and leakage in the single-digit nW.
    pub fn nangate45() -> Self {
        let mut lib = Library::new("nangate45");
        // (name, fn, fanin, area µm², cap fF, R kΩ, d0 ps, leak nW)
        type LibRow = (&'static str, GateFn, usize, f64, f64, f64, f64, f64);
        let rows: &[LibRow] = &[
            ("INV_X1", GateFn::Inv, 1, 0.532, 1.0, 8.0, 6.0, 1.2),
            ("INV_X2", GateFn::Inv, 1, 0.798, 2.0, 4.0, 6.0, 2.2),
            ("INV_X4", GateFn::Inv, 1, 1.330, 4.0, 2.0, 6.5, 4.2),
            ("BUF_X1", GateFn::Buf, 1, 0.798, 1.0, 8.0, 14.0, 1.6),
            ("BUF_X2", GateFn::Buf, 1, 1.064, 1.1, 4.0, 15.0, 2.6),
            ("BUF_X4", GateFn::Buf, 1, 1.596, 1.3, 2.0, 16.0, 4.8),
            ("BUF_X8", GateFn::Buf, 1, 2.660, 1.8, 1.0, 18.0, 9.0),
            ("AND2_X1", GateFn::And, 2, 1.064, 1.0, 8.0, 18.0, 2.0),
            ("AND3_X1", GateFn::And, 3, 1.330, 1.0, 8.0, 22.0, 2.6),
            ("AND4_X1", GateFn::And, 4, 1.596, 1.0, 8.0, 26.0, 3.2),
            ("NAND2_X1", GateFn::Nand, 2, 0.798, 1.1, 8.5, 8.0, 1.6),
            ("NAND2_X2", GateFn::Nand, 2, 1.064, 2.2, 4.2, 8.5, 3.0),
            ("NAND3_X1", GateFn::Nand, 3, 1.064, 1.2, 9.0, 11.0, 2.0),
            ("NAND4_X1", GateFn::Nand, 4, 1.330, 1.3, 9.5, 14.0, 2.4),
            ("OR2_X1", GateFn::Or, 2, 1.064, 1.0, 8.0, 19.0, 2.0),
            ("OR3_X1", GateFn::Or, 3, 1.330, 1.0, 8.0, 23.0, 2.6),
            ("OR4_X1", GateFn::Or, 4, 1.596, 1.0, 8.0, 27.0, 3.2),
            ("NOR2_X1", GateFn::Nor, 2, 0.798, 1.1, 9.0, 9.0, 1.7),
            ("NOR2_X2", GateFn::Nor, 2, 1.064, 2.2, 4.5, 9.5, 3.1),
            ("NOR3_X1", GateFn::Nor, 3, 1.064, 1.2, 9.5, 12.0, 2.1),
            ("NOR4_X1", GateFn::Nor, 4, 1.330, 1.3, 10.0, 15.0, 2.5),
            ("XOR2_X1", GateFn::Xor, 2, 1.596, 1.5, 9.0, 24.0, 2.8),
            ("XNOR2_X1", GateFn::Xnor, 2, 1.596, 1.5, 9.0, 24.0, 2.8),
        ];
        for &(name, function, fanin, area, cap, res, d0, leak) in rows {
            lib.add_cell(LibCell {
                name: name.to_string(),
                function,
                num_inputs: fanin,
                area_um2: area,
                input_cap_ff: cap,
                drive_res_kohm: res,
                intrinsic_delay_ps: d0,
                leakage_nw: leak,
            });
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_word_truth_tables() {
        // Two-input truth table in the low four lanes: a = 0011, b = 0101.
        let a = 0b0011u64;
        let b = 0b0101u64;
        let m = 0b1111u64;
        assert_eq!(GateFn::And.eval_word(&[a, b]) & m, 0b0001);
        assert_eq!(GateFn::Nand.eval_word(&[a, b]) & m, 0b1110);
        assert_eq!(GateFn::Or.eval_word(&[a, b]) & m, 0b0111);
        assert_eq!(GateFn::Nor.eval_word(&[a, b]) & m, 0b1000);
        assert_eq!(GateFn::Xor.eval_word(&[a, b]) & m, 0b0110);
        assert_eq!(GateFn::Xnor.eval_word(&[a, b]) & m, 0b1001);
        assert_eq!(GateFn::Buf.eval_word(&[a]) & m, a);
        assert_eq!(GateFn::Inv.eval_word(&[a]) & m, 0b1100);
    }

    #[test]
    fn eval_word_nary() {
        let w = [0b1111, 0b1010, 0b1100u64];
        assert_eq!(GateFn::And.eval_word(&w) & 0xF, 0b1000);
        assert_eq!(GateFn::Xor.eval_word(&w) & 0xF, 0b1001);
    }

    #[test]
    fn eval_block_is_eval_word_per_word() {
        let blocks = [
            [0x0123_4567_89ab_cdef, !0, 0],
            [0xfedc_ba98_7654_3210, 0xaaaa, !0],
            [0x0f0f_0f0f_0f0f_0f0f, 0x5555, 1],
            [0x3333_3333_cccc_cccc, 0, !1],
        ];
        for f in [
            GateFn::Buf,
            GateFn::Inv,
            GateFn::And,
            GateFn::Nand,
            GateFn::Or,
            GateFn::Nor,
            GateFn::Xor,
            GateFn::Xnor,
        ] {
            for arity in 1..=blocks.len() {
                let out = f.eval_block(blocks[..arity].iter());
                for (k, &word) in out.iter().enumerate() {
                    let words: Vec<u64> = blocks[..arity].iter().map(|b| b[k]).collect();
                    assert_eq!(word, f.eval_word(&words), "{f} arity {arity} word {k}");
                }
            }
        }
    }

    #[test]
    fn nangate45_lookup() {
        let lib = Library::nangate45();
        assert!(!lib.is_empty());
        let nand2 = lib.find("NAND2_X1").expect("NAND2_X1 present");
        let c = lib.cell(nand2);
        assert_eq!(c.function, GateFn::Nand);
        assert_eq!(c.num_inputs, 2);
        assert!(c.area_um2 > 0.0);
    }

    #[test]
    fn cell_for_picks_min_area() {
        let lib = Library::nangate45();
        let id = lib.cell_for(GateFn::Nand, 2).unwrap();
        assert_eq!(lib.cell(id).name, "NAND2_X1");
    }

    #[test]
    fn cell_for_rejects_unrealizable_fanin() {
        let lib = Library::nangate45();
        let err = lib.cell_for(GateFn::And, 9).unwrap_err();
        assert!(matches!(err, NetlistError::BadFanin { fanin: 9, .. }));
    }

    #[test]
    fn delay_model_monotone_in_load() {
        let lib = Library::nangate45();
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        assert!(inv.delay_ps(10.0) > inv.delay_ps(1.0));
    }

    #[test]
    fn bench_name_roundtrip() {
        for f in [
            GateFn::Buf,
            GateFn::Inv,
            GateFn::And,
            GateFn::Nand,
            GateFn::Or,
            GateFn::Nor,
            GateFn::Xor,
            GateFn::Xnor,
        ] {
            assert_eq!(GateFn::from_bench_name(f.bench_name()).unwrap(), f);
        }
        assert!(GateFn::from_bench_name("MAJ").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate library cell")]
    fn duplicate_cell_panics() {
        let mut lib = Library::nangate45();
        lib.add_cell(LibCell {
            name: "INV_X1".into(),
            function: GateFn::Inv,
            num_inputs: 1,
            area_um2: 1.0,
            input_cap_ff: 1.0,
            drive_res_kohm: 1.0,
            intrinsic_delay_ps: 1.0,
            leakage_nw: 1.0,
        });
    }
}
