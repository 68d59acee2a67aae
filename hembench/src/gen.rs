//! The seeded input generator.
//!
//! Everything the program under test receives is rendered here: system
//! descriptions as scenario-DSL text, server requests as protocol JSON
//! lines, and exploration searches as DSL text plus a period-choice
//! set. Each input is a pure function of `(seed, stream, index)`, so a
//! seed reproduces a run's inputs byte for byte and inputs can be made
//! in any order.
//!
//! # Why each shape is in the mix
//!
//! Systems are built from independent blocks (each with its own CPUs
//! and buses) until they reach a drawn entity count, where an entity is
//! a task, a frame or a signal:
//!
//! * [`Shape::Fig2`]: the paper's Fig. 2 system with seeded periods,
//!   CETs and priorities. It is the workload the paper is about: a
//!   hierarchical frame stream with a pending rider.
//! * [`Shape::GatewayChain`]: 2–4 bus hops through gateway CPUs. It
//!   makes global iteration propagate jitter hop by hop.
//! * [`Shape::Multibus`]: two buses with a one-way gateway and local
//!   cross traffic on both sides. It puts forwarded and local frames in
//!   one CAN arbitration.
//! * [`Shape::Pending`]: one trigger carrying 2–6 pending riders with
//!   receivers on two CPUs. It stresses the inner-update function.
//! * [`Shape::TaskSet`]: a CPU of 2–4 periodically activated tasks, the
//!   TDMA/EDF/RR corpus shapes; the system analysis schedules them SPP.
//!   It adds local analyses with no bus in front of them.
//!
//! Every block keeps each resource's utilization well below 1, also
//! under every mutation the what-if stream can apply, so every
//! generated system converges and no operation fails by design.
//!
//! # Where the mix comes from
//!
//! The shape weights ([`SHAPE_WEIGHTS`]) are the file counts of the
//! matching families in the scenario corpus, `crates/bench/scenarios/`
//! (54 files): `fig2_*` and `paper` 8, `gateway_*` 9, `multibus_*` 7,
//! `pending_*` 8, and `tdma_*`, `edf_*`, `rr_*` together 6. Families
//! not generated: `overload_*` (overloaded by design, so their analyses
//! fail), and `prio_*`, `burst_*`, `jitter_*` (priority orders and
//! source jitter, which every shape already draws).
//!
//! The rest are choices, not measurements: the repository records no
//! real system sizes or what-if traffic.
//!
//! * Sizes: `analyze_cold` systems cycle through four size classes
//!   ([`SIZE_CLASSES`]) spanning 10–300 entities, the range the
//!   benchmark targets, with a uniform draw inside each. Cycling makes
//!   every run's size mix the same, which keeps runs comparable.
//!   `whatif_tcp` sessions are mid-size, 40–80 entities
//!   ([`SESSION_SIZE`]).
//! * Operations: a what-if session's steps are `mutate` or `analyze`
//!   with even odds ([`session_ops`]). Equal shares give both kinds'
//!   medians and tails the same number of samples, so a change that
//!   helps one and hurts the other shows on both sides with the same
//!   precision. The repository's serving bench (`crates/bench/src/
//!   serving.rs`) sends 8 or 16 mutations per analysis, but that is its
//!   `analyze_every` sizing knob, not recorded traffic; at that ratio
//!   `throughput_per_s` and `p50_ms` would follow the fsync path almost
//!   alone.
//! * Mutations ([`mutation`]): half retune a task's CETs, 30% a
//!   source's period and jitter, 10% a frame's payload and 10% a bus's
//!   bit time, so the common edits touch one task or one stream and a
//!   few touch a whole bus.

use std::fmt::Write as _;

/// The paper's Fig. 2 system, exactly as in the scenario corpus: the
/// first member of every `analyze_cold` stream, checked against
/// Table 3.
pub const FIG2: &str = "\
# The paper's Fig. 2 system (Tables 1-3), 1 paper unit = 10 bit times.
cpu cpu1
bus can bit_time=1

frame F1 bus=can type=direct payload=4 prio=1
  signal s1 triggering periodic:2500
  signal s2 triggering periodic:4500
  signal s3 pending periodic:6000

frame F2 bus=can type=direct payload=2 prio=2
  signal s4 triggering periodic:4000

task T1 cpu=cpu1 cet=240 prio=1 activation=F1/s1
task T2 cpu=cpu1 cet=320 prio=2 activation=F1/s2
task T3 cpu=cpu1 cet=400 prio=3 activation=F1/s3
";

/// The tightened 10x Fig. 2 exploration family: its default packing
/// misses T1's deadline and a repacking meets all three.
pub const TIGHT10X: &str = "\
cpu cpu1
bus can bit_time=1

frame F1 bus=can type=direct payload=2 prio=1
  signal s1 triggering periodic:2500
  signal s2 triggering periodic:4500

frame F2 bus=can type=direct payload=3 prio=2
  signal s4 triggering periodic:4000
  signal s5 triggering periodic:4200
  signal s3 pending periodic:6000

task T3 cpu=cpu1 cet=700 prio=1 deadline=1500 activation=F2/s3
task T1 cpu=cpu1 cet=1200 prio=2 deadline=2500 activation=periodic:2500
task T2 cpu=cpu1 cet=600 prio=3 activation=periodic:4500
";

/// Systems at the head of every `analyze_cold` stream that do not
/// depend on the seed (Fig. 2 plus systems of [`ANCHOR_SEED`]), so
/// every run is checked against committed reference digests.
pub const ANCHORS: u64 = 16;

/// The seed the anchor systems are drawn from.
pub const ANCHOR_SEED: u64 = 0x00C0_FFEE;

/// Entity-count classes of `analyze_cold` systems. System `i` falls in
/// class `i % 4`, so every run has the same size mix whatever its seed.
pub const SIZE_CLASSES: [(usize, usize); 4] = [(10, 30), (30, 80), (80, 160), (160, 300)];

/// Entity range of the `whatif_tcp` session systems.
pub const SESSION_SIZE: (usize, usize) = (40, 80);

/// Exploration searches cycle through these period-choice sets in
/// order, so every run has the same mix of search sizes. Each entry is
/// `(site, candidate periods)`; a site is `task:<name>` or
/// `<frame>/<signal>`, and the first period is the baseline.
pub const PERIOD_SETS: [&[(&str, &[i64])]; 5] = [
    &[],
    &[("task:T1", &[2500, 700, 600])],
    &[("task:T2", &[4500, 3000])],
    &[("F1/s1", &[2500, 2000])],
    &[("F2/s4", &[4000, 3000])],
];

/// Priority-shuffle seeds an exploration search draws from.
pub const SHUFFLE_SEEDS: u64 = 64;

const STREAM_COLD: u64 = 1;
const STREAM_SESSION: u64 = 2;
const STREAM_OPS: u64 = 3;
const STREAM_SEARCH: u64 = 4;

/// SplitMix64: small, fast and fully determined by its state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for element `index` of `stream` under `seed`.
    #[must_use]
    pub fn derive(seed: u64, stream: u64, index: u64) -> Self {
        let mut rng = Rng(seed);
        let a = rng.next_u64() ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut rng = Rng(a);
        Rng(rng.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// `base` scaled by a uniform factor in `[lo_pct, hi_pct]` percent,
    /// rounded to a multiple of 10 ticks (at least 10).
    pub fn scaled(&mut self, base: i64, lo_pct: i64, hi_pct: i64) -> i64 {
        (base * self.range(lo_pct, hi_pct) / 1000).max(1) * 10
    }

    /// A uniformly random permutation of `1..=n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (1..=n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
        items
    }
}

/// A block shape (see the module docs for why each is in the mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fig. 2 with seeded periods, CETs and priorities.
    Fig2,
    /// A chain of 2–4 bus hops through gateway CPUs.
    GatewayChain,
    /// Two buses, a one-way gateway and local cross traffic.
    Multibus,
    /// One trigger signal carrying 2–6 pending riders.
    Pending,
    /// A CPU of 2–4 periodically activated tasks.
    TaskSet,
}

/// Draw weights of the shapes: corpus file counts of the matching
/// families (see the module docs).
const SHAPE_WEIGHTS: [(Shape, u64); 5] = [
    (Shape::Fig2, 8),
    (Shape::GatewayChain, 9),
    (Shape::Multibus, 7),
    (Shape::Pending, 8),
    (Shape::TaskSet, 6),
];

fn pick_shape(rng: &mut Rng) -> Shape {
    let total: u64 = SHAPE_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut roll = rng.below(total);
    for (shape, weight) in SHAPE_WEIGHTS {
        if roll < weight {
            return shape;
        }
        roll -= weight;
    }
    unreachable!("roll is below the weight total")
}

/// What a what-if mutation may retune in a generated system, with the
/// generated (base) values mutations scale from.
#[derive(Debug, Clone, Default)]
pub struct Knobs {
    /// `(task, base CET)`.
    pub tasks: Vec<(String, i64)>,
    /// `(frame, signal, base period)` of externally sourced signals.
    pub sources: Vec<(String, String, i64)>,
    /// Frame names.
    pub frames: Vec<String>,
    /// Bus names.
    pub buses: Vec<String>,
}

/// A generated system.
#[derive(Debug, Clone)]
pub struct GenSystem {
    /// Scenario-DSL text.
    pub text: String,
    /// Mutation targets.
    pub knobs: Knobs,
}

#[derive(Default)]
struct Builder {
    cpus: String,
    buses: String,
    frames: String,
    tasks: String,
    entities: usize,
    knobs: Knobs,
}

impl Builder {
    fn cpu(&mut self, name: &str) {
        let _ = writeln!(self.cpus, "cpu {name}");
    }

    fn bus(&mut self, name: &str, bit_time: i64) {
        let _ = writeln!(self.buses, "bus {name} bit_time={bit_time}");
        self.knobs.buses.push(name.to_string());
    }

    fn frame(&mut self, name: &str, bus: &str, payload: i64, prio: usize) {
        let _ = writeln!(
            self.frames,
            "\nframe {name} bus={bus} type=direct payload={payload} prio={prio}"
        );
        self.knobs.frames.push(name.to_string());
        self.entities += 1;
    }

    /// A signal of the frame declared last, sourced periodically.
    fn periodic_signal(&mut self, frame: &str, name: &str, pending: bool, period: i64) {
        let kind = if pending { "pending" } else { "triggering" };
        let _ = writeln!(self.frames, "  signal {name} {kind} periodic:{period}");
        self.knobs
            .sources
            .push((frame.to_string(), name.to_string(), period));
        self.entities += 1;
    }

    /// A signal of the frame declared last, written by a task.
    fn output_signal(&mut self, name: &str, writer: &str) {
        let _ = writeln!(self.frames, "  signal {name} triggering output:{writer}");
        self.entities += 1;
    }

    fn task(&mut self, name: &str, cpu: &str, cet: i64, prio: usize, activation: &str) {
        let _ = writeln!(
            self.tasks,
            "task {name} cpu={cpu} cet={cet} prio={prio} activation={activation}"
        );
        self.knobs.tasks.push((name.to_string(), cet));
        self.entities += 1;
    }

    fn block(&mut self, shape: Shape, p: &str, rng: &mut Rng) {
        match shape {
            Shape::Fig2 => {
                let (cpu, bus, f1, f2) = (
                    format!("{p}_cpu"),
                    format!("{p}_can"),
                    format!("{p}_F1"),
                    format!("{p}_F2"),
                );
                self.cpu(&cpu);
                self.bus(&bus, 1);
                let frame_prio = rng.permutation(2);
                self.frame(&f1, &bus, 4, frame_prio[0]);
                for (s, base, pending) in
                    [("s1", 2500, false), ("s2", 4500, false), ("s3", 6000, true)]
                {
                    let period = rng.scaled(base, 80, 125);
                    self.periodic_signal(&f1, s, pending, period);
                }
                self.frame(&f2, &bus, 2, frame_prio[1]);
                let period = rng.scaled(4000, 80, 125);
                self.periodic_signal(&f2, "s4", false, period);
                let prio = rng.permutation(3);
                for (i, (t, base, s)) in [("T1", 240, "s1"), ("T2", 320, "s2"), ("T3", 400, "s3")]
                    .into_iter()
                    .enumerate()
                {
                    let cet = rng.scaled(base, 60, 140);
                    self.task(
                        &format!("{p}_{t}"),
                        &cpu,
                        cet,
                        prio[i],
                        &format!("{f1}/{s}"),
                    );
                }
            }
            Shape::GatewayChain => {
                let hops = rng.range(2, 4) as usize;
                let edge = format!("{p}_edge");
                self.cpu(&edge);
                for i in 0..hops {
                    let bus = format!("{p}_b{i}");
                    let bit_time = rng.range(1, 2);
                    self.bus(&bus, bit_time);
                    let frame = format!("{p}_f{i}");
                    let payload = rng.range(2, 8);
                    self.frame(&frame, &bus, payload, 1);
                    if i == 0 {
                        let period = rng.scaled(3000, 70, 160);
                        self.periodic_signal(&frame, "d0", false, period);
                    } else {
                        self.output_signal(&format!("d{i}"), &format!("{p}_fwd{i}"));
                    }
                }
                for i in 1..hops {
                    let gw = format!("{p}_gw{i}");
                    self.cpu(&gw);
                    let cet = rng.scaled(200, 60, 150);
                    let activation = format!("{p}_f{}/d{}", i - 1, i - 1);
                    self.task(&format!("{p}_fwd{i}"), &gw, cet, 1, &activation);
                }
                let cet = rng.scaled(350, 60, 150);
                let activation = format!("{p}_f{}/d{}", hops - 1, hops - 1);
                self.task(&format!("{p}_end"), &edge, cet, 1, &activation);
            }
            Shape::Multibus => {
                let (gw, la, lb) = (format!("{p}_gw"), format!("{p}_la"), format!("{p}_lb"));
                let (ba, bb) = (format!("{p}_ba"), format!("{p}_bb"));
                for cpu in [&gw, &la, &lb] {
                    self.cpu(cpu);
                }
                self.bus(&ba, 1);
                self.bus(&bb, 1);
                let prio_a = rng.permutation(2);
                let prio_b = rng.permutation(2);
                let (am, al, bf, bl) = (
                    format!("{p}_am"),
                    format!("{p}_al"),
                    format!("{p}_bf"),
                    format!("{p}_bl"),
                );
                self.frame(&am, &ba, 4, prio_a[0]);
                let period = rng.scaled(2400, 80, 125);
                self.periodic_signal(&am, "x", false, period);
                self.frame(&al, &ba, 2, prio_a[1]);
                let period = rng.scaled(3000, 80, 125);
                self.periodic_signal(&al, "x", false, period);
                self.frame(&bf, &bb, 4, prio_b[0]);
                self.output_signal("x", &format!("{p}_bridge"));
                self.frame(&bl, &bb, 2, prio_b[1]);
                let period = rng.scaled(2000, 80, 125);
                self.periodic_signal(&bl, "x", false, period);
                let prio = rng.permutation(2);
                let cet = rng.scaled(140, 60, 140);
                self.task(&format!("{p}_bridge"), &gw, cet, 1, &format!("{am}/x"));
                let cet = rng.scaled(280, 60, 140);
                self.task(&format!("{p}_use_al"), &la, cet, 1, &format!("{al}/x"));
                let cet = rng.scaled(320, 60, 140);
                self.task(
                    &format!("{p}_use_bf"),
                    &lb,
                    cet,
                    prio[0],
                    &format!("{bf}/x"),
                );
                let cet = rng.scaled(160, 60, 140);
                self.task(
                    &format!("{p}_use_bl"),
                    &lb,
                    cet,
                    prio[1],
                    &format!("{bl}/x"),
                );
            }
            Shape::Pending => {
                let riders = rng.range(2, 6) as usize;
                let (rx1, rx2, bus, frame) = (
                    format!("{p}_rx1"),
                    format!("{p}_rx2"),
                    format!("{p}_can"),
                    format!("{p}_omni"),
                );
                self.cpu(&rx1);
                self.cpu(&rx2);
                self.bus(&bus, 1);
                self.frame(&frame, &bus, 8, 1);
                let period = rng.scaled(1000, 90, 150);
                self.periodic_signal(&frame, "go", false, period);
                for r in 1..=riders {
                    let period = rng.scaled(1200, 60, 170);
                    self.periodic_signal(&frame, &format!("r{r}"), true, period);
                }
                let cet = rng.scaled(80, 50, 150);
                self.task(&format!("{p}_tgo"), &rx1, cet, 1, &format!("{frame}/go"));
                let split = riders.div_ceil(2);
                for r in 1..=riders {
                    let (cpu, prio) = if r <= split {
                        (&rx1, r + 1)
                    } else {
                        (&rx2, r - split)
                    };
                    let cet = rng.scaled(80, 50, 120);
                    self.task(
                        &format!("{p}_t{r}"),
                        cpu,
                        cet,
                        prio,
                        &format!("{frame}/r{r}"),
                    );
                }
            }
            Shape::TaskSet => {
                let n = rng.range(2, 4) as usize;
                let cpu = format!("{p}_node");
                self.cpu(&cpu);
                let prio = rng.permutation(n);
                // Each task takes at most 15% of the CPU.
                for (i, &pr) in prio.iter().enumerate() {
                    let period = rng.scaled(1200, 40, 170);
                    let cet = (period * rng.range(5, 15) / 100).max(10);
                    let activation = format!("periodic:{period}");
                    self.task(&format!("{p}_e{i}"), &cpu, cet, pr, &activation);
                }
            }
        }
    }

    fn finish(self) -> GenSystem {
        let mut text = String::new();
        text.push_str(&self.cpus);
        text.push_str(&self.buses);
        text.push_str(&self.frames);
        text.push('\n');
        text.push_str(&self.tasks);
        GenSystem {
            text,
            knobs: self.knobs,
        }
    }
}

/// A system of independent random blocks with at least `target`
/// entities.
fn blocks_system(rng: &mut Rng, target: usize) -> GenSystem {
    let mut builder = Builder::default();
    let mut n = 0;
    while builder.entities < target {
        let shape = pick_shape(rng);
        builder.block(shape, &format!("b{n}"), rng);
        n += 1;
    }
    builder.finish()
}

/// Element `index` of the `analyze_cold` stream under `seed`: Fig. 2
/// first, then anchor systems, then systems drawn from `seed`.
#[must_use]
pub fn cold_system(seed: u64, index: u64) -> String {
    if index == 0 {
        return FIG2.to_string();
    }
    let from = if index < ANCHORS { ANCHOR_SEED } else { seed };
    let mut rng = Rng::derive(from, STREAM_COLD, index);
    let (lo, hi) = SIZE_CLASSES[(index % SIZE_CLASSES.len() as u64) as usize];
    let target = rng.range(lo as i64, hi as i64) as usize;
    blocks_system(&mut rng, target).text
}

/// The `n`-th session system of client `client` in `whatif_tcp`.
#[must_use]
pub fn session_system(seed: u64, client: u64, n: u64) -> GenSystem {
    let mut rng = Rng::derive(seed, STREAM_SESSION, client << 32 | n);
    let target = rng.range(SESSION_SIZE.0 as i64, SESSION_SIZE.1 as i64) as usize;
    blocks_system(&mut rng, target)
}

/// One step of a what-if session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOp {
    /// A `mutate` carrying this event JSON object.
    Mutate(String),
    /// An `analyze`.
    Analyze,
}

/// The event JSON of one random mutation of `knobs`. Every value is
/// drawn around the generated base value, never around an earlier
/// mutation, so sessions cannot drift into overload.
#[must_use]
pub fn mutation(rng: &mut Rng, knobs: &Knobs) -> String {
    loop {
        match rng.below(10) {
            0..=4 if !knobs.tasks.is_empty() => {
                let (task, base) = &knobs.tasks[rng.below(knobs.tasks.len() as u64) as usize];
                let wcet = (base * rng.range(70, 130) / 100).max(1);
                let bcet = wcet * rng.range(50, 100) / 100;
                return format!(
                    "{{\"type\":\"set_task\",\"task\":\"{task}\",\"bcet\":{bcet},\"wcet\":{wcet},\"priority\":null}}"
                );
            }
            5..=7 if !knobs.sources.is_empty() => {
                let (frame, signal, base) =
                    &knobs.sources[rng.below(knobs.sources.len() as u64) as usize];
                let period = base * rng.range(85, 120) / 100;
                let jitter = period * rng.range(0, 10) / 100;
                return format!(
                    "{{\"type\":\"set_source\",\"frame\":\"{frame}\",\"signal\":\"{signal}\",\"period\":{period},\"jitter\":{jitter}}}"
                );
            }
            8 if !knobs.frames.is_empty() => {
                let frame = &knobs.frames[rng.below(knobs.frames.len() as u64) as usize];
                let payload = rng.range(1, 8);
                return format!(
                    "{{\"type\":\"set_payload\",\"frame\":\"{frame}\",\"payload\":{payload}}}"
                );
            }
            9 if !knobs.buses.is_empty() => {
                let bus = &knobs.buses[rng.below(knobs.buses.len() as u64) as usize];
                let bit_time = rng.range(1, 2);
                return format!(
                    "{{\"type\":\"set_bus\",\"bus\":\"{bus}\",\"bit_time\":{bit_time}}}"
                );
            }
            _ => {}
        }
    }
}

/// The first `len` steps of the `n`-th session of `client`: a seeded
/// half-and-half mix of mutations and analyses.
#[must_use]
pub fn session_ops(seed: u64, client: u64, n: u64, knobs: &Knobs, len: usize) -> Vec<SessionOp> {
    let mut rng = Rng::derive(seed, STREAM_OPS, client << 32 | n);
    (0..len)
        .map(|_| {
            if rng.below(2) == 0 {
                SessionOp::Mutate(mutation(&mut rng, knobs))
            } else {
                SessionOp::Analyze
            }
        })
        .collect()
}

/// The protocol line opening `session` on `scenario`.
#[must_use]
pub fn open_line(session: &str, scenario: &str) -> String {
    let mut line = format!("{{\"op\":\"open\",\"session\":\"{session}\",\"scenario\":");
    hem_obs::json::write_escaped(&mut line, scenario);
    line.push('}');
    line
}

/// The protocol line for one session step.
#[must_use]
pub fn op_line(session: &str, op: &SessionOp) -> String {
    match op {
        SessionOp::Mutate(event) => {
            format!("{{\"op\":\"mutate\",\"session\":\"{session}\",\"event\":{event}}}")
        }
        SessionOp::Analyze => format!("{{\"op\":\"analyze\",\"session\":\"{session}\"}}"),
    }
}

/// One exploration search of the `explore_search` stream: [`TIGHT10X`]
/// under a period-choice set and a priority-shuffle seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Index into [`PERIOD_SETS`].
    pub set: usize,
    /// Seed of the random priority shuffles.
    pub shuffle_seed: u64,
}

/// Element `index` of the `explore_search` stream under `seed`.
#[must_use]
pub fn search(seed: u64, index: u64) -> Search {
    let mut rng = Rng::derive(seed, STREAM_SEARCH, index);
    Search {
        set: (index % PERIOD_SETS.len() as u64) as usize,
        shuffle_seed: rng.below(SHUFFLE_SEEDS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_system::dsl;

    fn session_bytes(seed: u64) -> String {
        let mut out = String::new();
        for n in 0..4 {
            let system = session_system(seed, 1, n);
            out.push_str(&open_line("s", &system.text));
            for op in session_ops(seed, 1, n, &system.knobs, 64) {
                out.push_str(&op_line("s", &op));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for index in [0, 1, 15, 16, 17, 400] {
            assert_eq!(cold_system(7, index), cold_system(7, index));
        }
        assert_eq!(session_bytes(7), session_bytes(7));
        assert_eq!(search(7, 33), search(7, 33));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a: Vec<String> = (ANCHORS..ANCHORS + 8).map(|i| cold_system(1, i)).collect();
        let b: Vec<String> = (ANCHORS..ANCHORS + 8).map(|i| cold_system(2, i)).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        assert_ne!(session_bytes(1), session_bytes(2));
        let sa: Vec<Search> = (0..32).map(|i| search(1, i)).collect();
        let sb: Vec<Search> = (0..32).map(|i| search(2, i)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn anchors_do_not_depend_on_the_seed() {
        assert_eq!(cold_system(1, 0), FIG2);
        for index in 1..ANCHORS {
            assert_eq!(cold_system(1, index), cold_system(99, index));
        }
    }

    #[test]
    fn no_system_repeats_within_a_stream() {
        let texts: std::collections::BTreeSet<String> =
            (0..300).map(|i| cold_system(5, i)).collect();
        assert_eq!(texts.len(), 300);
    }

    #[test]
    fn every_generated_system_parses_within_its_size_class() {
        for seed in [0, 1, 2] {
            for index in 0..120 {
                let text = cold_system(seed, index);
                dsl::parse(&text).unwrap_or_else(|e| panic!("seed {seed} #{index}: {e}\n{text}"));
                if index > 0 {
                    let (lo, hi) = SIZE_CLASSES[(index % 4) as usize];
                    let entities = text
                        .lines()
                        .map(str::trim_start)
                        .filter(|l| {
                            ["task ", "frame ", "signal "]
                                .iter()
                                .any(|k| l.starts_with(k))
                        })
                        .count();
                    // The last block may overshoot by up to 15 entities.
                    assert!(entities >= lo && entities < hi + 16, "{entities}");
                }
            }
            for n in 0..20 {
                let system = session_system(seed, 0, n);
                dsl::parse(&system.text).unwrap_or_else(|e| panic!("{e}\n{}", system.text));
            }
        }
        dsl::parse(TIGHT10X).expect("the exploration family parses");
    }
}
