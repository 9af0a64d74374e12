//! Every order of a service's lifecycle inputs, checked.
//!
//! `jitsu::lifecycle` decides every query and timer of jitsud. A seeded
//! storm reaches only the orders its arrivals happen to produce; this test
//! reaches every state the core can reach within a small scope, breadth
//! first with duplicate states merged, and feeds every input in every state:
//! a late `ReapCheck`, a second `ConstructionDone`, a `Query` while
//! `Draining`. It keeps a ledger of what each verdict did — reservations
//! taken and given back, slots held, domains built, clients parked and
//! answered, timers scheduled — and after every step checks:
//!
//! - reservations equal the services that are `AwaitingSlot`;
//! - slots held equal the services whose construction is still running;
//! - no client is answered twice, and none is dropped;
//! - every parked client is answered once the pending timers fire;
//! - with Synjitsu on, `Running` is reached only through `HandoffCommitted`;
//! - domains and reservations never need more memory than the board has;
//! - a service whose name is no store path never leaves `Idle`.
//!
//! A failure prints the shortest failing input sequence. `--nocapture`
//! prints the number of states each scope reached.

use jitsu::lifecycle::{Boot, Input, LifecyclePhase, Stage, Verdict};
use std::collections::BTreeSet;

/// The timers jitsud schedules, in the order they fire: a drain's carries
/// whether clients wait for it, and a pending idle check finds the service
/// idle.
fn timers(waiting: bool) -> [Input; 6] {
    [
        Input::ConstructionDone,
        Input::NetworkReady,
        Input::HandoffCommitted,
        Input::AppReady,
        Input::ReapCheck { idle: true },
        Input::DrainDone { waiting },
    ]
}

/// The index into [`timers`] of the timer `input` is, if it is one.
fn timer(input: Input) -> Option<usize> {
    let input = match input {
        Input::ReapCheck { .. } => Input::ReapCheck { idle: true },
        Input::DrainDone { .. } => Input::DrainDone { waiting: false },
        other => other,
    };
    timers(false).iter().position(|t| *t == input)
}

/// The index of a timer the daemon schedules.
fn at(input: Input) -> usize {
    timer(input).unwrap_or_default()
}

/// The bounds of one exploration.
struct Scope {
    /// Whether each service's name is a store path.
    named: Vec<bool>,
    /// Domains the board's memory holds (every service is one domain's
    /// worth).
    memory: i32,
    /// Launch slots.
    slots: i32,
    /// Clients that may be parked at once, over all services.
    max_parked: u8,
    /// The longest input sequence.
    depth: usize,
    /// Synjitsu holds a booting service's connections.
    proxied: bool,
}

/// One service: its stage and the ledger of what its verdicts did.
#[derive(Debug, Clone)]
struct Service {
    stage: Stage,
    named: bool,
    parked: u8,
    reservations: i8,
    slots: i8,
    domains: i8,
    /// Pending timers, by index into [`timers`].
    timers: [u8; 6],
    /// In the dispatcher's launch queue.
    queued_for_slot: bool,
    /// The running boot adopted its handed-over connections.
    handed_over: bool,
}

#[derive(Debug, Clone)]
struct Model {
    services: Vec<Service>,
}

impl Model {
    fn new(scope: &Scope) -> Model {
        let services = scope
            .named
            .iter()
            .map(|&named| Service {
                stage: Stage::IDLE,
                named,
                parked: 0,
                reservations: 0,
                slots: 0,
                domains: 0,
                timers: [0; 6],
                queued_for_slot: false,
                handed_over: false,
            })
            .collect();
        Model { services }
    }

    /// The state with the ledger, for merging duplicates.
    fn key(&self) -> Vec<u8> {
        let mut key = Vec::new();
        for s in &self.services {
            key.extend([
                s.stage.phase as u8,
                s.stage.boot as u8,
                s.parked,
                s.reservations as u8,
                s.slots as u8,
                s.domains as u8,
                u8::from(s.queued_for_slot),
                u8::from(s.handed_over),
            ]);
            key.extend(s.timers);
        }
        key
    }

    fn parked(&self) -> u8 {
        self.services.iter().map(|s| s.parked).sum()
    }

    fn slots_held(&self) -> i32 {
        self.services.iter().map(|s| i32::from(s.slots)).sum()
    }

    fn memory_held(&self) -> i32 {
        let held = |s: &Service| i32::from(s.domains) + i32::from(s.reservations);
        self.services.iter().map(held).sum()
    }

    /// The inputs the scope lets arrive for service `s` now: every input,
    /// with the facts a query, an idle check and a drain carry taken from
    /// the ledger, and a slot only while one is free.
    fn inputs(&self, scope: &Scope, s: usize) -> Vec<Input> {
        let svc = &self.services[s];
        let mut inputs = Vec::new();
        if self.parked() < scope.max_parked {
            inputs.push(Input::Query {
                fits: self.memory_held() < scope.memory,
                named: svc.named,
            });
        }
        if self.slots_held() < scope.slots {
            inputs.push(Input::SlotGranted);
        }
        inputs.extend([
            Input::BuildFailed,
            Input::ConstructionDone,
            Input::NetworkReady,
            Input::HandoffCommitted,
            Input::AppReady,
            Input::ReapCheck { idle: false },
            Input::ReapCheck { idle: true },
            Input::DrainDone {
                waiting: svc.parked > 0,
            },
        ]);
        inputs
    }

    /// Feed `input` to service `s`, act on the verdict as jitsud does, and
    /// check every rule a step can break.
    fn feed(&mut self, scope: &Scope, s: usize, input: Input) -> Result<Verdict, String> {
        let parked_before = self.parked();
        let svc = &mut self.services[s];
        // A boot's timers fire in order, so one arriving while an earlier
        // one is pending is a stray copy, and the pending one stays due.
        if let Some(t) = timer(input) {
            let boot_timers = at(Input::AppReady) + 1;
            if t >= boot_timers || svc.timers[..t].iter().all(|&n| n == 0) {
                svc.timers[t] = svc.timers[t].saturating_sub(1);
            }
        }
        if input == Input::SlotGranted {
            svc.queued_for_slot = false;
        }
        let from = svc.stage.phase;
        let (stage, verdict) = svc.stage.step(input, scope.proxied);
        svc.stage = stage;
        svc.reservations += verdict.reservation();
        svc.slots += verdict.slot();
        let mut answered = 0;
        match verdict {
            Verdict::Admit | Verdict::Coalesce | Verdict::AwaitRelaunch => svc.parked += 1,
            Verdict::ServFail | Verdict::CannotLaunch | Verdict::ServeWarm => answered += 1,
            Verdict::Serve | Verdict::LaunchFailed => answered += std::mem::take(&mut svc.parked),
            _ => {}
        }
        let built = [
            Input::ConstructionDone,
            Input::NetworkReady,
            Input::AppReady,
        ];
        match verdict {
            Verdict::Admit | Verdict::Relaunch => svc.queued_for_slot = true,
            Verdict::Build => {
                svc.domains += 1;
                svc.handed_over = false;
                for t in built {
                    svc.timers[at(t)] += 1;
                }
            }
            // The toolstack built nothing, so the build scheduled nothing.
            Verdict::LaunchFailed => {
                svc.domains -= 1;
                for t in built {
                    svc.timers[at(t)] = svc.timers[at(t)].saturating_sub(1);
                }
            }
            Verdict::Prepare => svc.timers[at(Input::HandoffCommitted)] += 1,
            Verdict::Adopt => svc.handed_over = true,
            Verdict::Serve | Verdict::ServeWarm => {
                svc.timers[at(Input::ReapCheck { idle: true })] += 1;
            }
            Verdict::StartDrain => svc.timers[at(Input::DrainDone { waiting: false })] += 1,
            _ => {}
        }
        if matches!(verdict, Verdict::GoIdle | Verdict::Relaunch) {
            svc.domains -= 1;
        }

        let phase = svc.stage.phase;
        let building = phase == LifecyclePhase::Launching && svc.stage.boot == Boot::Building;
        if svc.reservations != i8::from(phase == LifecyclePhase::AwaitingSlot) {
            return Err(format!(
                "reservations equal the services awaiting a slot: service {s} holds {} in {phase:?}",
                svc.reservations
            ));
        }
        if svc.slots != i8::from(building) {
            return Err(format!(
                "slots held equal the services whose construction runs: service {s} holds {} at {:?}",
                svc.slots, svc.stage
            ));
        }
        if scope.proxied
            && phase == LifecyclePhase::Running
            && from != LifecyclePhase::Running
            && !svc.handed_over
        {
            return Err(format!(
                "with Synjitsu on, Running is reached only through HandoffCommitted: service {s}"
            ));
        }
        if !svc.named && phase != LifecyclePhase::Idle {
            return Err(format!(
                "a service whose name is no store path never leaves Idle: service {s} is {phase:?}"
            ));
        }
        let arrived = u8::from(matches!(input, Input::Query { .. }));
        let after = answered + self.parked();
        if after != parked_before + arrived {
            let what = if after > parked_before + arrived {
                "no client is answered twice"
            } else {
                "no client is dropped"
            };
            return Err(format!(
                "{what}: {parked_before} parked, {arrived} arrived, {answered} answered, {} parked",
                self.parked()
            ));
        }
        if self.memory_held() > scope.memory {
            return Err(format!(
                "domains and reservations fit the board: {} held, {} fit",
                self.memory_held(),
                scope.memory
            ));
        }
        Ok(verdict)
    }

    /// Let the daemon run with no further query: the dispatcher grants every
    /// free slot, then the earliest pending timer fires, until nothing is
    /// pending. Every parked client must have been answered by then.
    /// Returns the inputs delivered.
    fn settle(&mut self, scope: &Scope) -> (Vec<Step>, Result<(), String>) {
        let mut delivered = Vec::new();
        for _ in 0..64 {
            let next = if self.slots_held() < scope.slots {
                self.services.iter().position(|s| s.queued_for_slot)
            } else {
                None
            }
            .map(|s| (s, Input::SlotGranted))
            .or_else(|| {
                (0..timers(false).len()).find_map(|t| {
                    let s = self.services.iter().position(|s| s.timers[t] > 0)?;
                    Some((s, timers(self.services[s].parked > 0)[t]))
                })
            });
            let Some((s, input)) = next else {
                let parked = self.parked();
                let result = if parked == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "every parked client is answered once the timers fire: {parked} never are"
                    ))
                };
                return (delivered, result);
            };
            delivered.push((s, input));
            if let Err(e) = self.feed(scope, s, input) {
                return (delivered, Err(e));
            }
        }
        (delivered, Err("the pending timers never settle".into()))
    }
}

/// One input to one service: `(service, input)`.
type Step = (usize, Input);

/// A state reached, and the state and input that first reached it.
struct Node {
    model: Model,
    from: Option<(usize, Step)>,
}

/// The inputs that first reached `nodes[at]`, in order.
fn path(nodes: &[Node], mut at: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    while let Some((from, step)) = nodes[at].from {
        steps.push(step);
        at = from;
    }
    steps.reverse();
    steps
}

/// Explore every state `scope` reaches and return how many there are and
/// the stages any service reached, or panic with the shortest sequence that
/// breaks a rule.
fn explore(scope: &Scope) -> (usize, Vec<Stage>) {
    let root = Model::new(scope);
    let mut seen = BTreeSet::from([root.key()]);
    let mut nodes = vec![Node {
        model: root,
        from: None,
    }];
    let mut frontier = vec![0];
    for _ in 0..scope.depth {
        let mut next = Vec::new();
        for &at in &frontier {
            for s in 0..scope.named.len() {
                for input in nodes[at].model.inputs(scope, s) {
                    let mut model = nodes[at].model.clone();
                    let mut failure = model.feed(scope, s, input).err().map(|e| (e, Vec::new()));
                    if failure.is_none() {
                        let (timers, settled) = model.clone().settle(scope);
                        failure = settled.err().map(|e| (e, timers));
                    }
                    if let Some((rule, timers)) = failure {
                        let mut steps = path(&nodes, at);
                        steps.push((s, input));
                        fail(scope, &rule, &steps, &timers);
                    }
                    if seen.insert(model.key()) {
                        let from = Some((at, (s, input)));
                        nodes.push(Node { model, from });
                        next.push(nodes.len() - 1);
                    }
                }
            }
        }
        frontier = next;
    }
    let mut stages: Vec<Stage> = Vec::new();
    for svc in nodes.iter().flat_map(|node| &node.model.services) {
        if !stages.contains(&svc.stage) {
            stages.push(svc.stage);
        }
    }
    (nodes.len(), stages)
}

fn fail(scope: &Scope, rule: &str, steps: &[Step], timers: &[Step]) -> ! {
    let mut model = Model::new(scope);
    let mut text = format!(
        "rule broken: {rule}\nshortest failing sequence ({} inputs, Synjitsu {}",
        steps.len() + timers.len(),
        if scope.proxied { "on" } else { "off" },
    );
    if !timers.is_empty() {
        text += &format!("; the last {} deliver what was pending", timers.len());
    }
    text += "):\n";
    for (n, &(s, input)) in steps.iter().chain(timers).enumerate() {
        let verdict = model.feed(scope, s, input);
        text += &format!("  {}. service {s}: {input:?} -> {verdict:?}\n", n + 1);
    }
    panic!("{text}");
}

/// Explore `named`'s services under both Synjitsu settings, and require
/// each exploration to reach every stage a launch passes through.
fn explore_both(named: &[bool], memory: i32, depth: usize) {
    for proxied in [true, false] {
        let scope = Scope {
            named: named.to_vec(),
            memory,
            slots: 1,
            max_parked: 3,
            depth,
            proxied,
        };
        let (states, stages) = explore(&scope);
        println!(
            "{} service(s), memory for {memory}, depth {depth}, Synjitsu {}: {states} states",
            named.len(),
            if proxied { "on" } else { "off" }
        );
        let mut launch = vec![Boot::Building, Boot::Booting];
        if proxied {
            launch.extend([Boot::Prepared, Boot::HandedOver]);
        }
        let phases = [
            LifecyclePhase::Idle,
            LifecyclePhase::AwaitingSlot,
            LifecyclePhase::Running,
            LifecyclePhase::Draining,
        ];
        let expected = phases
            .map(Stage::new)
            .into_iter()
            .chain(launch.into_iter().map(|boot| Stage {
                boot,
                ..Stage::new(LifecyclePhase::Launching)
            }));
        for stage in expected {
            assert!(stages.contains(&stage), "{stage:?} never reached");
        }
    }
}

#[test]
fn one_service_in_every_order_up_to_ten_inputs() {
    explore_both(&[true], 1, 10);
}

#[test]
fn two_services_sharing_memory_for_one_in_every_order_up_to_ten_inputs() {
    explore_both(&[true, true], 1, 10);
}

#[test]
fn a_service_whose_name_is_no_store_path_never_leaves_idle() {
    explore_both(&[true, false], 1, 10);
}

#[test]
#[ignore = "a deeper scope: run with --include-ignored"]
fn two_services_with_memory_for_two_in_every_order_up_to_fourteen_inputs() {
    explore_both(&[true, true], 2, 14);
}
