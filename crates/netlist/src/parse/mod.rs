//! Netlist reader and writer for the ISCAS-85 `.bench` format the
//! benchmark suite is distributed in (`INPUT(..)`, `OUTPUT(..)`,
//! `g = NAND(a, b)`).

pub mod bench;

pub use bench::{parse_bench, write_bench};
