//! Schedule serialisation: a plain-data mirror, a line-oriented text
//! format for CLI interchange, and the binary [`wire`] codec the
//! `flb-service` protocol rides on.
//!
//! Text format:
//!
//! ```text
//! # comment
//! procs 4
//! speeds 1 1 2 4                       (optional: per-proc slowdowns)
//! s <task> <proc> <start> <finish>    (one line per task, any order)
//! ```

use crate::{Placement, ProcId, Schedule};
use flb_graph::Time;
use std::fmt;

/// Plain-data mirror of [`Schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleData {
    /// Per-processor slowdown factors of the target machine (all 1 on the
    /// paper's homogeneous machines); the length is the processor count.
    pub slowdowns: Vec<Time>,
    /// `(proc, start, finish)` per task, indexed by task id.
    pub placements: Vec<(usize, Time, Time)>,
}

impl From<&Schedule> for ScheduleData {
    fn from(s: &Schedule) -> Self {
        ScheduleData {
            slowdowns: s
                .machine()
                .procs()
                .map(|p| s.machine().slowdown(p))
                .collect(),
            placements: s
                .placements()
                .iter()
                .map(|p| (p.proc.0, p.start, p.finish))
                .collect(),
        }
    }
}

impl From<ScheduleData> for Schedule {
    fn from(d: ScheduleData) -> Self {
        let placements = d
            .placements
            .into_iter()
            .map(|(proc, start, finish)| Placement {
                proc: ProcId(proc),
                start,
                finish,
            })
            .collect();
        Schedule::from_raw_on(crate::Machine::related(d.slowdowns), placements)
    }
}

/// Errors from [`parse_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleTextError {
    /// A line could not be parsed (1-based line number).
    Malformed(usize, String),
    /// A task id appears twice or is missing.
    BadCoverage(String),
}

impl fmt::Display for ScheduleTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleTextError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
            ScheduleTextError::BadCoverage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ScheduleTextError {}

/// Emits the text format.
#[must_use]
pub fn to_text(s: &Schedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "procs {}", s.num_procs());
    // `speeds` must be emitted whenever any slowdown differs from 1 — a
    // *uniformly slow* machine (e.g. all-3) is homogeneous but not unit.
    if s.machine().procs().any(|p| s.machine().slowdown(p) != 1) {
        let speeds: Vec<String> = s
            .machine()
            .procs()
            .map(|p| s.machine().slowdown(p).to_string())
            .collect();
        let _ = writeln!(out, "speeds {}", speeds.join(" "));
    }
    for (i, p) in s.placements().iter().enumerate() {
        let _ = writeln!(out, "s {} {} {} {}", i, p.proc.0, p.start, p.finish);
    }
    out
}

/// Parses the text format. Placement lines may appear in any order but must
/// cover task ids `0..n` exactly once.
pub fn parse_text(text: &str) -> Result<Schedule, ScheduleTextError> {
    let mut procs: usize = 0;
    let mut speeds: Option<Vec<Time>> = None;
    let mut entries: Vec<(usize, Placement)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("procs") => {
                procs = parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| {
                    ScheduleTextError::Malformed(lineno, "expected `procs N`".into())
                })?;
            }
            Some("speeds") => {
                let parsed: Option<Vec<Time>> = parts.map(|x| x.parse().ok()).collect();
                match parsed {
                    Some(v) if !v.is_empty() && v.iter().all(|&x| x >= 1) => {
                        speeds = Some(v);
                    }
                    _ => {
                        return Err(ScheduleTextError::Malformed(
                            lineno,
                            "expected `speeds <s0> <s1> ...` (all >= 1)".into(),
                        ))
                    }
                }
            }
            Some("s") => {
                let mut num = || -> Option<u64> { parts.next()?.parse().ok() };
                match (num(), num(), num(), num()) {
                    (Some(t), Some(p), Some(st), Some(ft)) => entries.push((
                        t as usize,
                        Placement {
                            proc: ProcId(p as usize),
                            start: st,
                            finish: ft,
                        },
                    )),
                    _ => {
                        return Err(ScheduleTextError::Malformed(
                            lineno,
                            "expected `s <task> <proc> <start> <finish>`".into(),
                        ))
                    }
                }
            }
            Some(other) => {
                return Err(ScheduleTextError::Malformed(
                    lineno,
                    format!("unknown directive {other:?}"),
                ))
            }
            None => unreachable!("non-empty trimmed line"),
        }
    }

    let n = entries.len();
    let mut placements = vec![None; n];
    for (t, p) in entries {
        let slot = placements.get_mut(t).ok_or_else(|| {
            ScheduleTextError::BadCoverage(format!("task id {t} out of range 0..{n}"))
        })?;
        if slot.replace(p).is_some() {
            return Err(ScheduleTextError::BadCoverage(format!(
                "task id {t} appears twice"
            )));
        }
    }
    let placements: Vec<Placement> = placements
        .into_iter()
        .enumerate()
        .map(|(t, p)| {
            p.ok_or_else(|| ScheduleTextError::BadCoverage(format!("task id {t} missing")))
        })
        .collect::<Result<_, _>>()?;
    // Placements must target a declared processor; tolerating out-of-range
    // ids here would push a panic into every downstream consumer.
    let declared = match &speeds {
        Some(v) => v.len(),
        None => procs.max(1),
    };
    if let Some(p) = placements.iter().find(|p| p.proc.0 >= declared) {
        return Err(ScheduleTextError::BadCoverage(format!(
            "placement on {} but the header declares {declared} processor(s)",
            p.proc
        )));
    }
    let machine = match speeds {
        Some(v) => {
            if v.len() != procs {
                return Err(ScheduleTextError::BadCoverage(format!(
                    "speeds lists {} processors, header declares {procs}",
                    v.len()
                )));
            }
            crate::Machine::related(v)
        }
        None => crate::Machine::new(procs.max(1)),
    };
    Ok(Schedule::from_raw_on(machine, placements))
}

pub mod wire {
    //! Compact binary wire codec for task graphs and schedules.
    //!
    //! This is the payload format of the `flb-service` protocol: all
    //! integers are fixed-width little-endian, collections are
    //! length-prefixed, and decoding re-validates everything it can
    //! (graphs go through the checking builder, schedule placements must
    //! target a declared processor). The format carries no
    //! self-description beyond those lengths — framing and versioning are
    //! the transport's job.

    use super::ScheduleData;
    use crate::{Machine, Placement, ProcId, Schedule};
    use flb_graph::serialize::TaskGraphData;
    use flb_graph::TaskGraph;
    use std::fmt;

    /// Hard cap on decoded collection lengths: a corrupt or hostile
    /// length prefix must not drive a multi-gigabyte allocation.
    pub const MAX_ITEMS: usize = 1 << 24;

    /// Errors from decoding.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError {
        /// The buffer ended before the announced data did.
        Truncated,
        /// A field held an impossible value (message says which).
        Malformed(String),
    }

    impl fmt::Display for WireError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                WireError::Truncated => f.write_str("truncated wire data"),
                WireError::Malformed(msg) => write!(f, "malformed wire data: {msg}"),
            }
        }
    }

    impl std::error::Error for WireError {}

    fn malformed(msg: impl Into<String>) -> WireError {
        WireError::Malformed(msg.into())
    }

    /// Append-only encoder over a byte buffer.
    #[derive(Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// A fresh, empty writer.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends one byte.
        pub fn put_u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        /// Appends a `u32`, little-endian.
        pub fn put_u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a `u64`, little-endian.
        pub fn put_u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a length-prefixed UTF-8 string.
        pub fn put_str(&mut self, s: &str) {
            self.put_u32(s.len() as u32);
            self.buf.extend_from_slice(s.as_bytes());
        }

        /// The encoded bytes.
        #[must_use]
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Cursor-style decoder over a byte slice.
    pub struct Reader<'a> {
        buf: &'a [u8],
    }

    impl<'a> Reader<'a> {
        /// A reader over `buf`.
        #[must_use]
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf }
        }

        /// Bytes not yet consumed.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.buf.len()
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
            if self.buf.len() < n {
                return Err(WireError::Truncated);
            }
            let (head, tail) = self.buf.split_at(n);
            self.buf = tail;
            Ok(head)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            Ok(u32::from_le_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            ))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            Ok(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))
        }

        /// Reads a length as `u32` and bounds-checks it against
        /// [`MAX_ITEMS`] and the bytes actually remaining (each item
        /// takes at least `min_item_bytes`).
        pub fn len(&mut self, what: &str, min_item_bytes: usize) -> Result<usize, WireError> {
            let n = self.u32()? as usize;
            if n > MAX_ITEMS || n.saturating_mul(min_item_bytes) > self.remaining() {
                return Err(malformed(format!("{what} count {n} exceeds the payload")));
            }
            Ok(n)
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, WireError> {
            let n = self.len("string byte", 1)?;
            String::from_utf8(self.take(n)?.to_vec()).map_err(|_| malformed("string is not UTF-8"))
        }
    }

    /// Encodes a task graph (name, computation costs, edge list).
    pub fn put_graph(w: &mut Writer, g: &TaskGraph) {
        let data = TaskGraphData::from(g);
        w.put_str(&data.name);
        w.put_u32(data.comp.len() as u32);
        for c in &data.comp {
            w.put_u64(*c);
        }
        w.put_u32(data.edges.len() as u32);
        for (s, d, c) in &data.edges {
            w.put_u32(*s as u32);
            w.put_u32(*d as u32);
            w.put_u64(*c);
        }
    }

    /// Decodes a task graph, re-validating it through the checking builder
    /// (dangling edges and cycles are rejected).
    pub fn get_graph(r: &mut Reader<'_>) -> Result<TaskGraph, WireError> {
        let name = r.str()?;
        let v = r.len("task", 8)?;
        let mut comp = Vec::with_capacity(v);
        for _ in 0..v {
            comp.push(r.u64()?);
        }
        let e = r.len("edge", 16)?;
        let mut edges = Vec::with_capacity(e);
        for _ in 0..e {
            let s = r.u32()? as usize;
            let d = r.u32()? as usize;
            let c = r.u64()?;
            edges.push((s, d, c));
        }
        TaskGraph::try_from(TaskGraphData { name, comp, edges })
            .map_err(|e| malformed(format!("invalid graph: {e}")))
    }

    /// Encodes a machine (per-processor slowdowns).
    pub fn put_machine(w: &mut Writer, m: &Machine) {
        w.put_u32(m.num_procs() as u32);
        for p in m.procs() {
            w.put_u64(m.slowdown(p));
        }
    }

    /// Decodes a machine.
    pub fn get_machine(r: &mut Reader<'_>) -> Result<Machine, WireError> {
        let p = r.len("processor", 8)?;
        if p == 0 {
            return Err(malformed("a machine needs at least one processor"));
        }
        let mut slow = Vec::with_capacity(p);
        for _ in 0..p {
            let s = r.u64()?;
            if s == 0 {
                return Err(malformed("slowdown factors must be at least 1"));
            }
            slow.push(s);
        }
        Ok(Machine::related(slow))
    }

    /// Encodes a schedule (machine plus per-task placements).
    pub fn put_schedule(w: &mut Writer, s: &Schedule) {
        let data = ScheduleData::from(s);
        w.put_u32(data.slowdowns.len() as u32);
        for sl in &data.slowdowns {
            w.put_u64(*sl);
        }
        w.put_u32(data.placements.len() as u32);
        for (proc, start, finish) in &data.placements {
            w.put_u32(*proc as u32);
            w.put_u64(*start);
            w.put_u64(*finish);
        }
    }

    /// Decodes a schedule; placements must target a declared processor.
    pub fn get_schedule(r: &mut Reader<'_>) -> Result<Schedule, WireError> {
        let machine = get_machine(r)?;
        let n = r.len("placement", 20)?;
        let mut placements = Vec::with_capacity(n);
        for _ in 0..n {
            let proc = r.u32()? as usize;
            let start = r.u64()?;
            let finish = r.u64()?;
            if proc >= machine.num_procs() {
                return Err(malformed(format!(
                    "placement on p{proc} but the machine has {} processor(s)",
                    machine.num_procs()
                )));
            }
            placements.push(Placement {
                proc: ProcId(proc),
                start,
                finish,
            });
        }
        Ok(Schedule::from_raw_on(machine, placements))
    }

    /// Convenience: a graph as a standalone byte buffer.
    #[must_use]
    pub fn encode_graph(g: &TaskGraph) -> Vec<u8> {
        let mut w = Writer::new();
        put_graph(&mut w, g);
        w.into_bytes()
    }

    /// Convenience: decodes a standalone graph buffer.
    pub fn decode_graph(buf: &[u8]) -> Result<TaskGraph, WireError> {
        get_graph(&mut Reader::new(buf))
    }

    /// Convenience: a schedule as a standalone byte buffer.
    #[must_use]
    pub fn encode_schedule(s: &Schedule) -> Vec<u8> {
        let mut w = Writer::new();
        put_schedule(&mut w, s);
        w.into_bytes()
    }

    /// Convenience: decodes a standalone schedule buffer.
    pub fn decode_schedule(buf: &[u8]) -> Result<Schedule, WireError> {
        get_schedule(&mut Reader::new(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, ScheduleBuilder};
    use flb_graph::paper::fig1;
    use flb_graph::TaskId;

    fn table1_schedule() -> Schedule {
        let g = fig1();
        let m = Machine::new(2);
        let mut b = ScheduleBuilder::new(&g, &m);
        b.place(TaskId(0), ProcId(0), 0);
        b.place(TaskId(3), ProcId(0), 2);
        b.place(TaskId(1), ProcId(1), 3);
        b.place(TaskId(2), ProcId(0), 5);
        b.place(TaskId(4), ProcId(1), 5);
        b.place(TaskId(5), ProcId(0), 7);
        b.place(TaskId(6), ProcId(1), 8);
        b.place(TaskId(7), ProcId(0), 12);
        b.build()
    }

    #[test]
    fn data_roundtrip() {
        let s = table1_schedule();
        let d = ScheduleData::from(&s);
        let s2: Schedule = d.clone().into();
        assert_eq!(s2, s);
        assert_eq!(ScheduleData::from(&s2), d);
    }

    #[test]
    fn text_roundtrip() {
        let s = table1_schedule();
        let text = to_text(&s);
        let s2 = parse_text(&text).unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn text_parses_out_of_order_and_comments() {
        let s = parse_text("# demo\nprocs 2\ns 1 1 3 5\ns 0 0 0 2\n").unwrap();
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.start(TaskId(0)), 0);
        assert_eq!(s.start(TaskId(1)), 3);
    }

    #[test]
    fn text_errors() {
        assert!(matches!(
            parse_text("procs x"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("s 0 0 0"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        assert!(matches!(
            parse_text("wat"),
            Err(ScheduleTextError::Malformed(1, _))
        ));
        // Duplicate task id.
        assert!(matches!(
            parse_text("procs 1\ns 0 0 0 1\ns 0 0 2 3"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        // Gap in coverage (id 2 of 0..2 present, 0 missing).
        assert!(matches!(
            parse_text("procs 1\ns 1 0 0 1\ns 0 0 2 3\ns 5 0 4 5"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        // Placement on an undeclared processor.
        assert!(matches!(
            parse_text("procs 2\ns 0 9 0 1"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
        assert!(matches!(
            parse_text("procs 2\nspeeds 1 2\ns 0 2 0 1"),
            Err(ScheduleTextError::BadCoverage(_))
        ));
    }

    #[test]
    fn wire_schedule_roundtrip() {
        let s = table1_schedule();
        let bytes = wire::encode_schedule(&s);
        assert_eq!(wire::decode_schedule(&bytes).unwrap(), s);

        // Heterogeneous machine survives too.
        let het = Schedule::from_raw_on(Machine::related(vec![1, 3]), s.placements().to_vec());
        let bytes = wire::encode_schedule(&het);
        assert_eq!(wire::decode_schedule(&bytes).unwrap(), het);
    }

    #[test]
    fn wire_graph_roundtrip() {
        let g = fig1();
        let bytes = wire::encode_graph(&g);
        let g2 = wire::decode_graph(&bytes).unwrap();
        assert_eq!(g2.name(), g.name());
        assert_eq!(g2.num_tasks(), g.num_tasks());
        assert_eq!(g2.num_edges(), g.num_edges());
        for t in g.tasks() {
            assert_eq!(g2.comp(t), g.comp(t));
            assert_eq!(g2.succs(t), g.succs(t));
        }
    }

    #[test]
    fn wire_rejects_corruption() {
        use wire::WireError;
        let s = table1_schedule();
        let bytes = wire::encode_schedule(&s);
        // Any strict prefix fails to decode (either as a truncation or as
        // a length prefix that now overruns the payload).
        for cut in 0..bytes.len() {
            assert!(wire::decode_schedule(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A length prefix pointing past the payload is malformed, not an
        // allocation attempt.
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            wire::decode_schedule(&huge),
            Err(WireError::Malformed(_))
        ));
        // A graph with a dangling edge is rejected by the builder.
        let mut w = wire::Writer::new();
        w.put_str("bad");
        w.put_u32(1); // one task
        w.put_u64(5);
        w.put_u32(1); // one edge to a task that does not exist
        w.put_u32(0);
        w.put_u32(7);
        w.put_u64(1);
        assert!(matches!(
            wire::decode_graph(&w.into_bytes()),
            Err(WireError::Malformed(_))
        ));
    }
}
