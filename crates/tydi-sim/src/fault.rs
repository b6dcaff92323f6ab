//! Deterministic, seed-reproducible fault injection.
//!
//! A [`FaultPlan`] describes adversarial conditions to weave into a
//! simulation run: credit stalls, randomized ready-latency (jitter),
//! frozen components and periodically dropped credit. Faults gate the
//! *credit* side of the handshake — a faulted channel refuses pushes,
//! exactly as if its consumer withheld `ready` — so every downstream
//! observable (refused-push counters, blocked ports, deadlock reports
//! with exact blocked channels) keeps working unchanged.
//!
//! Randomized faults are driven by a counter-mode PRNG: the decision
//! for `(channel, cycle)` is a pure function of the plan seed, the
//! fault seed, the channel name and the cycle. No mutable RNG state
//! exists anywhere, so a faulted run is byte-deterministic for a given
//! plan + seed at any `TYDI_THREADS` setting and under either
//! scheduler.

use std::fmt;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Withhold all credit on `channel` for `cycles` cycles starting
    /// at `from_cycle` (`u64::MAX` cycles = forever). The producer
    /// sees a full FIFO and records refused pushes.
    Stall {
        /// Channel name in the flattened graph's scheme.
        channel: String,
        /// First faulted cycle.
        from_cycle: u64,
        /// Fault duration in cycles (saturating).
        cycles: u64,
    },
    /// Randomized ready-latency on `channel`: each cycle, credit is
    /// granted only when the seeded PRNG rolls 0 out of
    /// `max_delay + 1`, giving a mean extra latency of `max_delay`
    /// cycles. `max_delay = 0` is a no-op.
    Jitter {
        /// Channel name in the flattened graph's scheme.
        channel: String,
        /// Per-fault seed, mixed with the plan seed.
        seed: u64,
        /// Mean extra ready-latency in cycles.
        max_delay: u64,
    },
    /// Stop `component` from firing at `at_cycle` and every cycle
    /// after: the component is removed from the scheduler's due list,
    /// so its inputs back up and its outputs starve.
    Freeze {
        /// Hierarchical component path in the flattened graph.
        component: String,
        /// First cycle at which the component no longer fires.
        at_cycle: u64,
    },
    /// Drop credit on `channel` every `every_n`-th cycle (cycles
    /// `n-1, 2n-1, ...`). `every_n = 1` blocks every cycle.
    DropCredit {
        /// Channel name in the flattened graph's scheme.
        channel: String,
        /// Period of the credit drop (minimum 1).
        every_n: u64,
    },
}

impl Fault {
    /// The channel or component this fault targets.
    pub fn target(&self) -> &str {
        match self {
            Fault::Stall { channel, .. }
            | Fault::Jitter { channel, .. }
            | Fault::DropCredit { channel, .. } => channel,
            Fault::Freeze { component, .. } => component,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Stall {
                channel,
                from_cycle,
                cycles,
            } => {
                if *cycles == u64::MAX {
                    write!(f, "stall({channel},{from_cycle},*)")
                } else {
                    write!(f, "stall({channel},{from_cycle},{cycles})")
                }
            }
            Fault::Jitter {
                channel,
                seed,
                max_delay,
            } => write!(f, "jitter({channel},{seed},{max_delay})"),
            Fault::Freeze {
                component,
                at_cycle,
            } => write!(f, "freeze({component},{at_cycle})"),
            Fault::DropCredit { channel, every_n } => write!(f, "drop({channel},{every_n})"),
        }
    }
}

/// A set of faults plus a plan-level seed mixed into every randomized
/// decision. [`FaultPlan::reseeded`] derives per-sweep variants that
/// keep the same structure but roll different jitter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The injected faults, in spec order.
    pub faults: Vec<Fault>,
    /// Plan-level seed (sweeps re-seed this).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault.
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The same fault structure under a different plan seed — one arm
    /// of an `--inject-sweep`.
    pub fn reseeded(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            faults: self.faults.clone(),
            seed,
        }
    }

    /// Parses an inject spec: `;`-separated clauses, each
    /// `kind(target,args...)`.
    ///
    /// | clause | meaning |
    /// |---|---|
    /// | `stall(CH,FROM,N)` | withhold credit on `CH` for `N` cycles from cycle `FROM` (`N` = `*` for forever) |
    /// | `jitter(CH,SEED,MAX)` | randomized ready-latency on `CH`, mean `MAX` cycles |
    /// | `freeze(COMP,AT)` | component `COMP` stops firing at cycle `AT` |
    /// | `drop(CH,N)` | drop credit on `CH` every `N`-th cycle |
    ///
    /// Channel names use the flattened graph's scheme (e.g.
    /// `boundary.o` or `top.dup.o[1] -> top.drag.i`), which may contain
    /// anything except `(`, `)`, `,` and `;`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            plan.faults.push(parse_clause(clause)?);
        }
        if plan.is_empty() {
            return Err(FaultParseError {
                clause: spec.to_string(),
                message: "no fault clauses found".to_string(),
            });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// A malformed `--inject` spec clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending clause.
    pub clause: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault clause `{}`: {}",
            self.clause, self.message
        )
    }
}

impl std::error::Error for FaultParseError {}

fn parse_clause(clause: &str) -> Result<Fault, FaultParseError> {
    let err = |message: &str| FaultParseError {
        clause: clause.to_string(),
        message: message.to_string(),
    };
    let open = clause
        .find('(')
        .ok_or_else(|| err("expected `kind(...)`"))?;
    if !clause.ends_with(')') {
        return Err(err("expected closing `)`"));
    }
    let kind = clause[..open].trim();
    let body = &clause[open + 1..clause.len() - 1];
    let args: Vec<&str> = body.split(',').map(str::trim).collect();
    let arity = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(err(&format!(
                "expected {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let number = |text: &str, what: &str| {
        text.parse::<u64>().map_err(|_| {
            err(&format!(
                "{what} must be a non-negative integer, got `{text}`"
            ))
        })
    };
    let target = |text: &str, what: &str| {
        if text.is_empty() {
            Err(err(&format!("{what} name is empty")))
        } else {
            Ok(text.to_string())
        }
    };
    match kind {
        "stall" => {
            arity(3)?;
            let cycles = if args[2] == "*" {
                u64::MAX
            } else {
                number(args[2], "cycles")?
            };
            Ok(Fault::Stall {
                channel: target(args[0], "channel")?,
                from_cycle: number(args[1], "from_cycle")?,
                cycles,
            })
        }
        "jitter" => {
            arity(3)?;
            Ok(Fault::Jitter {
                channel: target(args[0], "channel")?,
                seed: number(args[1], "seed")?,
                max_delay: number(args[2], "max_delay")?,
            })
        }
        "freeze" => {
            arity(2)?;
            Ok(Fault::Freeze {
                component: target(args[0], "component")?,
                at_cycle: number(args[1], "at_cycle")?,
            })
        }
        "drop" => {
            arity(2)?;
            let every_n = number(args[1], "every_n")?;
            if every_n == 0 {
                return Err(err("every_n must be at least 1"));
            }
            Ok(Fault::DropCredit {
                channel: target(args[0], "channel")?,
                every_n,
            })
        }
        other => Err(err(&format!(
            "unknown fault kind `{other}` (expected stall, jitter, freeze or drop)"
        ))),
    }
}

/// Counters of what the injected faults actually did, published under
/// `sim.fault.*` by the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Channel-cycles on which a fault withheld credit.
    pub gated_cycles: u64,
    /// Component ticks suppressed by `Freeze` faults.
    pub frozen_ticks: u64,
}

/// Counter-mode PRNG decision: stateless `splitmix64`-style finalizer
/// over `(seed, salt, cycle)`. Used for jitter; never mutated, so the
/// schedule is reproducible from the plan alone.
pub(crate) fn mix(seed: u64, salt: u64, cycle: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a of a name: the per-channel salt for [`mix`].
pub(crate) fn name_salt(name: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "stall(boundary.o,5,10); jitter(a -> b,7,3); freeze(top.drag,12); drop(x,4)",
        )
        .expect("parse");
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(
            plan.faults[0],
            Fault::Stall {
                channel: "boundary.o".to_string(),
                from_cycle: 5,
                cycles: 10,
            }
        );
        assert_eq!(
            plan.faults[1],
            Fault::Jitter {
                channel: "a -> b".to_string(),
                seed: 7,
                max_delay: 3,
            }
        );
        assert_eq!(
            plan.faults[2],
            Fault::Freeze {
                component: "top.drag".to_string(),
                at_cycle: 12,
            }
        );
        assert_eq!(
            plan.faults[3],
            Fault::DropCredit {
                channel: "x".to_string(),
                every_n: 4,
            }
        );
    }

    #[test]
    fn round_trips_through_display() {
        let spec = "stall(boundary.o,0,*);jitter(a -> b,7,3);freeze(top.drag,12);drop(x,4)";
        let plan = FaultPlan::parse(spec).expect("parse");
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn indefinite_stall_uses_star() {
        let plan = FaultPlan::parse("stall(ch,3,*)").unwrap();
        assert_eq!(
            plan.faults[0],
            Fault::Stall {
                channel: "ch".to_string(),
                from_cycle: 3,
                cycles: u64::MAX,
            }
        );
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "",
            "stall",
            "stall(ch,1)",
            "stall(,1,2)",
            "stall(ch,x,2)",
            "drop(ch,0)",
            "wobble(ch,1)",
            "stall(ch,1,2",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn reseed_keeps_structure() {
        let plan = FaultPlan::parse("jitter(ch,1,3)").unwrap();
        let other = plan.reseeded(99);
        assert_eq!(other.faults, plan.faults);
        assert_eq!(other.seed, 99);
    }

    #[test]
    fn mix_is_deterministic_and_seed_sensitive() {
        let salt = name_salt("boundary.o");
        assert_eq!(mix(1, salt, 10), mix(1, salt, 10));
        assert_ne!(mix(1, salt, 10), mix(2, salt, 10));
        assert_ne!(mix(1, salt, 10), mix(1, salt, 11));
        assert_ne!(mix(1, salt, 10), mix(1, name_salt("boundary.x"), 10));
    }
}
