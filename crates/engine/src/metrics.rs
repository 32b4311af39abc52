//! Job metrics and their schema: one table per attack kind that every
//! consumer of a [`JobMetrics`] value reads.
//!
//! A `Schema` lists an attack's fields — name, value type and codec
//! order — plus the aggregate columns derived from them. The binary
//! codec the store and the journal share, report JSON render and parse,
//! the CSV columns and rows, seed aggregates and the journal's
//! `job-finished` summary all walk these tables, so each metric is named
//! here and nowhere else. The module's tests pin the bytes each consumer
//! produces.

use sm_codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::job::AttackKind;
use crate::report::Json;

/// Metrics measured by one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobMetrics {
    /// Network-flow attack outcome (percentages, as the paper reports).
    Flow {
        /// CCR over the randomized connections of the protected layout.
        ccr_protected_pct: f64,
        /// OER of the netlist recovered from the protected layout.
        oer_pct: f64,
        /// HD of the netlist recovered from the protected layout.
        hd_pct: f64,
        /// CCR of the same attack on the unprotected baseline.
        ccr_original_pct: f64,
    },
    /// Crouting attack outcome, one entry per bounding box.
    Crouting {
        /// Vpins the attacker must reconnect in the protected layout.
        vpins_protected: usize,
        /// Vpins in the unprotected baseline.
        vpins_original: usize,
        /// Per-box `(tracks, els_protected, match_protected,
        /// els_original, match_original)`.
        boxes: Vec<(i64, f64, f64, f64, f64)>,
    },
    /// The job did not run: its budget was cancelled or past its
    /// deadline when the job was picked up. A distinct outcome — never
    /// persisted to the store, excluded from CSV rows and aggregates —
    /// that [`CampaignRun::resume`](crate::CampaignRun::resume) treats as
    /// absent, so `smctl resume` re-runs exactly these jobs.
    TimedOut,
    /// The job panicked (an attack bug, or an injected `job-run`
    /// fault). Like [`JobMetrics::TimedOut`], a placeholder rather than
    /// a measurement: never persisted, excluded from CSV rows and
    /// aggregates, and re-run by `smctl resume` — a panicking job is
    /// isolated instead of tearing down the campaign.
    Failed {
        /// The phase the panic landed in (`bundle`/`attack`).
        phase: String,
        /// The panic payload, when it carried a string.
        message: String,
    },
}

impl JobMetrics {
    /// `true` for the timed-out placeholder outcome.
    pub fn is_timed_out(&self) -> bool {
        matches!(self, JobMetrics::TimedOut)
    }

    /// `true` for the panicked placeholder outcome.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobMetrics::Failed { .. })
    }

    /// `true` for either placeholder outcome (timed-out or failed) —
    /// the outcomes that carry no measurement, are never persisted, and
    /// count as missing for `smctl resume`.
    pub fn is_placeholder(&self) -> bool {
        self.is_timed_out() || self.is_failed()
    }
}

// ----- the schema ----------------------------------------------------------

/// The value type of a metric field: how it encodes (8 bytes
/// little-endian either way), renders in JSON and formats in CSV.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `f64`; four decimals in CSV.
    Float,
    /// `u64`.
    Unsigned,
    /// `i64`.
    Signed,
}

/// One metric field.
#[derive(Debug)]
struct Field {
    name: &'static str,
    kind: Kind,
}

const fn field(name: &'static str, kind: Kind) -> Field {
    Field { name, kind }
}

/// The metric table of one attack kind.
#[derive(Debug)]
struct Schema {
    attack: AttackKind,
    /// The leading byte of the binary encoding.
    tag: u8,
    /// Job-level fields, in codec and column order.
    fields: &'static [Field],
    /// Per-bounding-box fields, in codec and column order. Boxes encode
    /// as a length-prefixed list after the job-level fields and render
    /// as the `boxes` array.
    box_fields: &'static [Field],
    /// Aggregate columns after the job-level fields: each is the mean
    /// over boxes of the box field at the given index.
    box_means: &'static [(&'static str, usize)],
}

impl Schema {
    fn has_boxes(&self) -> bool {
        !self.box_fields.is_empty()
    }
}

/// Network-flow attack (Tables 4/5): CCR, OER and HD in percent.
const FLOW: Schema = Schema {
    attack: AttackKind::NetworkFlow,
    tag: 0,
    fields: &[
        field("ccr_protected_pct", Kind::Float),
        field("oer_pct", Kind::Float),
        field("hd_pct", Kind::Float),
        field("ccr_original_pct", Kind::Float),
    ],
    box_fields: &[],
    box_means: &[],
};

/// Crouting attack (Table 3): vpin counts, then per bounding box its
/// size in tracks, E[LS] and the match-in-list rate.
const CROUTING: Schema = Schema {
    attack: AttackKind::Crouting,
    tag: 1,
    fields: &[
        field("vpins_protected", Kind::Unsigned),
        field("vpins_original", Kind::Unsigned),
    ],
    box_fields: &[
        field("bbox_tracks", Kind::Signed),
        field("els_protected", Kind::Float),
        field("match_protected", Kind::Float),
        field("els_original", Kind::Float),
        field("match_original", Kind::Float),
    ],
    box_means: &[("match_protected_mean", 2), ("match_original_mean", 4)],
};

/// Every schema, in CSV column order.
const SCHEMAS: [&Schema; 2] = [&FLOW, &CROUTING];

/// Encoding tags of the placeholders, which never decode.
const TIMED_OUT_TAG: u8 = 2;
const FAILED_TAG: u8 = 3;

/// JSON key of the per-box list (the report) or count (the journal).
const BOXES: &str = "boxes";

/// One metric value, of its field's [`Kind`].
#[derive(Debug, Clone, Copy)]
enum Value {
    Float(f64),
    Unsigned(u64),
    Signed(i64),
}

impl Value {
    /// The value as a float: exact for floats, the aggregate view of
    /// counts.
    fn as_f64(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Unsigned(v) => v as f64,
            Value::Signed(v) => v as f64,
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            Value::Unsigned(v) => v,
            other => unreachable!("{other:?} read as an unsigned field"),
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Value::Signed(v) => v,
            other => unreachable!("{other:?} read as a signed field"),
        }
    }

    fn encode(self, w: &mut Writer) {
        match self {
            Value::Float(v) => v.encode(w),
            Value::Unsigned(v) => v.encode(w),
            Value::Signed(v) => v.encode(w),
        }
    }

    fn decode(kind: Kind, r: &mut Reader<'_>) -> Result<Value, CodecError> {
        Ok(match kind {
            Kind::Float => Value::Float(f64::decode(r)?),
            Kind::Unsigned => Value::Unsigned(u64::decode(r)?),
            Kind::Signed => Value::Signed(i64::decode(r)?),
        })
    }

    fn to_json(self) -> Json {
        match self {
            Value::Float(v) => Json::Num(v),
            Value::Unsigned(v) => Json::UInt(v),
            Value::Signed(v) => Json::Int(v),
        }
    }

    fn from_json(kind: Kind, json: &Json) -> Option<Value> {
        match kind {
            Kind::Float => json.as_f64().map(Value::Float),
            Kind::Unsigned => json.as_u64().map(Value::Unsigned),
            Kind::Signed => json.as_i64().map(Value::Signed),
        }
    }

    fn to_csv(self) -> String {
        match self {
            Value::Float(v) => format!("{v:.4}"),
            Value::Unsigned(v) => v.to_string(),
            Value::Signed(v) => v.to_string(),
        }
    }
}

/// A measurement in schema form.
struct Record {
    schema: &'static Schema,
    /// One value per job-level field.
    values: Vec<Value>,
    /// One row of values per box.
    boxes: Vec<Vec<Value>>,
}

impl Record {
    /// The [`JobMetrics`] this record holds — the inverse of
    /// [`JobMetrics::record`].
    fn into_metrics(self) -> JobMetrics {
        let v = &self.values;
        match self.schema.attack {
            AttackKind::NetworkFlow => JobMetrics::Flow {
                ccr_protected_pct: v[0].as_f64(),
                oer_pct: v[1].as_f64(),
                hd_pct: v[2].as_f64(),
                ccr_original_pct: v[3].as_f64(),
            },
            AttackKind::Crouting => JobMetrics::Crouting {
                vpins_protected: v[0].as_u64() as usize,
                vpins_original: v[1].as_u64() as usize,
                boxes: self
                    .boxes
                    .iter()
                    .map(|b| {
                        let f = |i: usize| b[i].as_f64();
                        (b[0].as_i64(), f(1), f(2), f(3), f(4))
                    })
                    .collect(),
            },
        }
    }
}

impl JobMetrics {
    /// This measurement in schema form; `None` for the placeholders.
    fn record(&self) -> Option<Record> {
        use Value::{Float, Signed, Unsigned};
        Some(match self {
            JobMetrics::Flow {
                ccr_protected_pct,
                oer_pct,
                hd_pct,
                ccr_original_pct,
            } => Record {
                schema: &FLOW,
                values: vec![
                    Float(*ccr_protected_pct),
                    Float(*oer_pct),
                    Float(*hd_pct),
                    Float(*ccr_original_pct),
                ],
                boxes: Vec::new(),
            },
            JobMetrics::Crouting {
                vpins_protected,
                vpins_original,
                boxes,
            } => Record {
                schema: &CROUTING,
                values: vec![
                    Unsigned(*vpins_protected as u64),
                    Unsigned(*vpins_original as u64),
                ],
                boxes: boxes
                    .iter()
                    .map(|&(tracks, els_p, match_p, els_o, match_o)| {
                        vec![
                            Signed(tracks),
                            Float(els_p),
                            Float(match_p),
                            Float(els_o),
                            Float(match_o),
                        ]
                    })
                    .collect(),
            },
            JobMetrics::TimedOut | JobMetrics::Failed { .. } => return None,
        })
    }

    /// The `metrics` object of a report job.
    pub(crate) fn to_json(&self) -> Json {
        self.json(false)
    }

    /// The `metrics` summary of a `job-finished` event
    /// (`smctl events --format json`).
    pub(crate) fn summary_json(&self) -> Json {
        self.json(true)
    }

    /// The report object, or with `summary` the journal's shorter one: it
    /// counts boxes instead of listing them and drops a failure's phase
    /// and message.
    fn json(&self, summary: bool) -> Json {
        let Some(record) = self.record() else {
            return match self {
                JobMetrics::Failed { phase, message } if !summary => Json::obj([
                    ("failed", Json::Bool(true)),
                    ("phase", Json::str(phase)),
                    ("message", Json::str(message)),
                ]),
                JobMetrics::Failed { .. } => Json::obj([("failed", Json::Bool(true))]),
                _ => Json::obj([("timed_out", Json::Bool(true))]),
            };
        };
        let mut pairs = json_pairs(record.schema.fields, &record.values);
        if record.schema.has_boxes() {
            let boxes = if summary {
                Json::UInt(record.boxes.len() as u64)
            } else {
                let rows = record.boxes.iter();
                Json::Arr(
                    rows.map(|b| Json::Obj(json_pairs(record.schema.box_fields, b)))
                        .collect(),
                )
            };
            pairs.push((BOXES.to_string(), boxes));
        }
        Json::Obj(pairs)
    }

    /// Parses a report job's `metrics` object — the inverse of
    /// [`JobMetrics::to_json`].
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field, or reports an
    /// unrecognized shape.
    pub(crate) fn from_json(metrics: &Json) -> Result<JobMetrics, String> {
        // A measurement is recognized by its schema's first field.
        let schema = SCHEMAS
            .into_iter()
            .find(|s| metrics.get(s.fields[0].name).is_some());
        let Some(schema) = schema else {
            return if metrics.get("timed_out").is_some() {
                Ok(JobMetrics::TimedOut)
            } else if metrics.get("failed").is_some() {
                let text = |key: &str| metrics.get(key).and_then(Json::as_str).unwrap_or_default();
                Ok(JobMetrics::Failed {
                    phase: text("phase").to_string(),
                    message: text("message").to_string(),
                })
            } else {
                Err("unrecognized metrics shape".into())
            };
        };
        let values = parse_values(schema.fields, metrics, "metric")?;
        let mut boxes = Vec::new();
        if schema.has_boxes() {
            let list = metrics
                .get(BOXES)
                .and_then(Json::as_arr)
                .ok_or(format!("missing or malformed `{BOXES}`"))?;
            for bx in list {
                boxes.push(parse_values(schema.box_fields, bx, "box field")?);
            }
        }
        Ok(Record {
            schema,
            values,
            boxes,
        }
        .into_metrics())
    }

    /// The metric cells of this outcome's CSV rows, one per
    /// [`csv_columns`] column: one row for a flow job, one per box for a
    /// crouting job, none for the placeholders (their status lives in
    /// the JSON report).
    pub(crate) fn csv_rows(&self) -> Vec<Vec<String>> {
        let Some(record) = self.record() else {
            return Vec::new();
        };
        let row = |bx: &[Value]| -> Vec<String> {
            let cells = |s: &Schema| -> Vec<String> {
                if s.tag == record.schema.tag {
                    record.values.iter().chain(bx).map(|v| v.to_csv()).collect()
                } else {
                    vec![String::new(); s.fields.len() + s.box_fields.len()]
                }
            };
            SCHEMAS.into_iter().flat_map(cells).collect()
        };
        if record.schema.has_boxes() {
            record.boxes.iter().map(|b| row(b)).collect()
        } else {
            vec![row(&[])]
        }
    }

    /// The `(name, value)` scalars this outcome contributes to seed
    /// aggregates: each job-level field, then each box mean. None for
    /// the placeholders — they carry no measurement.
    pub(crate) fn aggregate_values(&self) -> Vec<(&'static str, f64)> {
        let Some(record) = self.record() else {
            return Vec::new();
        };
        let n = record.boxes.len().max(1) as f64;
        let fields = record.schema.fields.iter().zip(&record.values);
        let means = record.schema.box_means.iter().map(|&(name, i)| {
            let sum = record.boxes.iter().map(|b| b[i].as_f64()).sum::<f64>();
            (name, sum / n)
        });
        fields
            .map(|(f, v)| (f.name, v.as_f64()))
            .chain(means)
            .collect()
    }
}

/// The metric columns of the per-job CSV: every schema's job-level
/// fields, then its box fields.
pub(crate) fn csv_columns() -> impl Iterator<Item = &'static str> {
    let fields = SCHEMAS
        .into_iter()
        .flat_map(|s| s.fields.iter().chain(s.box_fields));
    fields.map(|f| f.name)
}

impl Encode for JobMetrics {
    fn encode(&self, w: &mut Writer) {
        if let Some(record) = self.record() {
            w.put_u8(record.schema.tag);
            record.values.iter().for_each(|v| v.encode(w));
            if record.schema.has_boxes() {
                (record.boxes.len() as u64).encode(w);
                record.boxes.iter().flatten().for_each(|v| v.encode(w));
            }
        } else if let JobMetrics::Failed { phase, message } = self {
            // Placeholders are never persisted (the store filters them;
            // the journal records them as events of their own), so they
            // encode only to keep the codec total.
            w.put_u8(FAILED_TAG);
            phase.encode(w);
            message.encode(w);
        } else {
            w.put_u8(TIMED_OUT_TAG);
        }
    }
}

impl Decode for JobMetrics {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // The placeholder tags are deliberately rejected like any other
        // unknown tag. Accepting one would let a stray store file satisfy
        // `run_job`'s store lookup forever — every resume would
        // "complete" the job back into the placeholder it is trying to
        // clear — and would let a `job-finished` journal record smuggle
        // in a non-result. Rejected, the file is a miss and the job
        // simply re-runs.
        let tag = r.take_u8()?;
        let schema = SCHEMAS
            .into_iter()
            .find(|s| s.tag == tag)
            .ok_or_else(|| CodecError::Invalid(format!("JobMetrics tag {tag}")))?;
        let values = decode_values(schema.fields, r)?;
        let mut boxes = Vec::new();
        if schema.has_boxes() {
            for _ in 0..r.take_len(8 * schema.box_fields.len())? {
                boxes.push(decode_values(schema.box_fields, r)?);
            }
        }
        Ok(Record {
            schema,
            values,
            boxes,
        }
        .into_metrics())
    }
}

fn decode_values(fields: &[Field], r: &mut Reader<'_>) -> Result<Vec<Value>, CodecError> {
    fields.iter().map(|f| Value::decode(f.kind, r)).collect()
}

/// `fields` as JSON object pairs.
fn json_pairs(fields: &[Field], values: &[Value]) -> Vec<(String, Json)> {
    let pairs = fields.iter().zip(values);
    pairs
        .map(|(f, v)| (f.name.to_string(), v.to_json()))
        .collect()
}

/// Parses `fields` out of the JSON `object`, naming the first missing or
/// malformed one (`what` says which kind of field it is).
fn parse_values(fields: &[Field], object: &Json, what: &str) -> Result<Vec<Value>, String> {
    let parse = |f: &Field| {
        let value = object.get(f.name).and_then(|v| Value::from_json(f.kind, v));
        value.ok_or_else(|| format!("missing or malformed {what} `{}`", f.name))
    };
    fields.iter().map(parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_codec::{decode_from_slice, encode_to_vec};

    /// One value of each outcome shape, with everything the engine
    /// derives from it. The literals were captured from the hand-written
    /// codec, report, CSV, aggregate and journal code this schema
    /// replaced, so they pin the layouts of stores, journals and reports
    /// already on disk.
    struct Pin {
        metrics: JobMetrics,
        hex: &'static str,
        json: &'static str,
        csv: &'static [&'static str],
        aggregates: &'static [(&'static str, f64)],
        summary: &'static str,
    }

    fn pins() -> [Pin; 4] {
        [
            Pin {
                metrics: JobMetrics::Flow {
                    ccr_protected_pct: 0.0,
                    oer_pct: 99.5,
                    hd_pct: 41.25,
                    ccr_original_pct: 87.5,
                },
                hex: "00\
                      0000000000000000\
                      0000000000e05840\
                      0000000000a04440\
                      0000000000e05540",
                json: r#"{"ccr_protected_pct":0.0,"oer_pct":99.5,"hd_pct":41.25,"ccr_original_pct":87.5}"#,
                csv: &["0.0000,99.5000,41.2500,87.5000,,,,,,,"],
                aggregates: &[
                    ("ccr_protected_pct", 0.0),
                    ("oer_pct", 99.5),
                    ("hd_pct", 41.25),
                    ("ccr_original_pct", 87.5),
                ],
                summary: r#"{"ccr_protected_pct":0.0,"oer_pct":99.5,"hd_pct":41.25,"ccr_original_pct":87.5}"#,
            },
            Pin {
                metrics: JobMetrics::Crouting {
                    vpins_protected: 1234,
                    vpins_original: 567,
                    boxes: vec![(15, 3.5, 0.25, 1.75, 0.5), (30, 7.0, 0.625, 2.5, 0.875)],
                },
                hex: "01\
                      d204000000000000\
                      3702000000000000\
                      0200000000000000\
                      0f00000000000000\
                      0000000000000c40\
                      000000000000d03f\
                      000000000000fc3f\
                      000000000000e03f\
                      1e00000000000000\
                      0000000000001c40\
                      000000000000e43f\
                      0000000000000440\
                      000000000000ec3f",
                json: r#"{"vpins_protected":1234,"vpins_original":567,"boxes":[{"bbox_tracks":15,"els_protected":3.5,"match_protected":0.25,"els_original":1.75,"match_original":0.5},{"bbox_tracks":30,"els_protected":7.0,"match_protected":0.625,"els_original":2.5,"match_original":0.875}]}"#,
                csv: &[
                    ",,,,1234,567,15,3.5000,0.2500,1.7500,0.5000",
                    ",,,,1234,567,30,7.0000,0.6250,2.5000,0.8750",
                ],
                aggregates: &[
                    ("vpins_protected", 1234.0),
                    ("vpins_original", 567.0),
                    ("match_protected_mean", 0.4375),
                    ("match_original_mean", 0.6875),
                ],
                summary: r#"{"vpins_protected":1234,"vpins_original":567,"boxes":2}"#,
            },
            Pin {
                metrics: JobMetrics::TimedOut,
                hex: "02",
                json: r#"{"timed_out":true}"#,
                csv: &[],
                aggregates: &[],
                summary: r#"{"timed_out":true}"#,
            },
            Pin {
                metrics: JobMetrics::Failed {
                    phase: "attack".into(),
                    message: "boom".into(),
                },
                hex: "03\
                      0600000000000000\
                      61747461636b\
                      0400000000000000\
                      626f6f6d",
                json: r#"{"failed":true,"phase":"attack","message":"boom"}"#,
                csv: &[],
                aggregates: &[],
                summary: r#"{"failed":true}"#,
            },
        ]
    }

    #[test]
    fn schema_pins_every_consumer_of_each_outcome_shape() {
        for pin in pins() {
            let m = &pin.metrics;
            let bytes = encode_to_vec(m);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pin.hex, "{m:?} bytes");
            assert_eq!(m.to_json().render_compact(), pin.json, "{m:?} json");
            let parsed = Json::parse(pin.json).unwrap();
            assert_eq!(&JobMetrics::from_json(&parsed).unwrap(), m);
            let rows: Vec<String> = m.csv_rows().iter().map(|r| r.join(",")).collect();
            assert_eq!(rows, pin.csv, "{m:?} csv");
            assert_eq!(m.aggregate_values(), pin.aggregates, "{m:?} aggregates");
            assert_eq!(m.summary_json().render_compact(), pin.summary);
            if m.is_placeholder() {
                // Placeholders never decode (see `Decode for JobMetrics`).
                assert!(decode_from_slice::<JobMetrics>(&bytes).is_err(), "{m:?}");
            } else {
                assert_eq!(&decode_from_slice::<JobMetrics>(&bytes).unwrap(), m);
                for len in 0..bytes.len() {
                    assert!(
                        decode_from_slice::<JobMetrics>(&bytes[..len]).is_err(),
                        "{m:?} truncated to {len} bytes decoded"
                    );
                }
            }
        }
        let columns: Vec<&str> = csv_columns().collect();
        assert_eq!(
            columns.join(","),
            "ccr_protected_pct,oer_pct,hd_pct,ccr_original_pct,vpins_protected,\
             vpins_original,bbox_tracks,els_protected,match_protected,els_original,match_original"
        );
    }

    #[test]
    fn json_parse_names_the_malformed_field() {
        let bad = |text: &str| JobMetrics::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(
            bad(
                r#"{"ccr_protected_pct":0.0,"oer_pct":"bogus","hd_pct":1.0,"ccr_original_pct":2.0}"#
            ),
            "missing or malformed metric `oer_pct`"
        );
        assert_eq!(
            bad(r#"{"vpins_protected":1,"vpins_original":-2,"boxes":[]}"#),
            "missing or malformed metric `vpins_original`"
        );
        assert_eq!(
            bad(r#"{"vpins_protected":1,"vpins_original":2,"boxes":[{"bbox_tracks":1.5}]}"#),
            "missing or malformed box field `bbox_tracks`"
        );
        assert_eq!(
            bad(r#"{"vpins_protected":1,"vpins_original":2}"#),
            "missing or malformed `boxes`"
        );
        assert_eq!(bad(r#"{"ccr":1.0}"#), "unrecognized metrics shape");
    }
}
