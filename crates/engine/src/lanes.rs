//! Struct-of-arrays storage for per-agent records.
//!
//! A protocol whose world state should be struct-of-arrays describes the
//! layout once with [`crate::record_lanes!`]: every field of its per-agent
//! record becomes either one `Vec` *lane* (one entry per agent) or a
//! *shared* field stored once for the whole population (protocol
//! parameters every agent carries identically). The macro generates
//!
//! * the population struct and its disjoint mutable chunk view;
//! * [`crate::protocol::AgentRecords`] for the population — gathering a
//!   record reads one entry of every lane, scattering writes them back,
//!   and decoding records rejects ones that disagree on a shared field;
//! * [`crate::protocol::RecordChunk`] for the chunk view — one
//!   gather/visit/scatter loop, which [`crate::protocol::step_records`]
//!   drives with the record's own [`crate::protocol::AgentState::update`];
//! * `init(protocol, config, streams)` and `split_lanes(len)`
//!   helpers for the protocol's `init_state` and `chunks_mut`.
//!
//! The record literal in the generated gather names every field, so a
//! field added to the record and not to the layout is a compile error —
//! the layout cannot silently drop state. The protocol still writes its
//! [`crate::protocol::ColumnarState`] impl by hand: the display and
//! metrics passes read only the lanes they need, through the record's
//! display and stage rules.

/// Declares the struct-of-arrays layout of a per-agent record; see the
/// [module docs](crate::lanes).
///
/// ```text
/// record_lanes! {
///     /// Docs of the population struct.
///     pub struct Columns, ChunkMut for Record {
///         shared { params: Params }
///         lanes { role: Role, opinion: Opinion, counter: u64 }
///     }
/// }
/// ```
///
/// Lane and shared field types must be `Copy`; shared ones also
/// `PartialEq`. `lanes` must list at least one field; the first one
/// supplies the population length.
#[macro_export]
macro_rules! record_lanes {
    (
        $(#[$meta:meta])*
        $vis:vis struct $cols:ident, $chunk:ident for $agent:ident {
            shared { $($sf:ident : $st:ty),* $(,)? }
            lanes { $first:ident : $ft:ty $(, $lf:ident : $lt:ty)* $(,)? }
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $cols {
            $($sf: $st,)*
            $first: Vec<$ft>,
            $($lf: Vec<$lt>,)*
        }

        #[doc = concat!("A disjoint mutable chunk of [`", stringify!($cols), "`]'s lanes.")]
        #[derive(Debug)]
        $vis struct $chunk<'a> {
            $($sf: $st,)*
            $first: &'a mut [$ft],
            $($lf: &'a mut [$lt],)*
        }

        impl $cols {
            /// The initial population of `protocol`: agent `id` is
            /// `protocol.init_agent(role, rng)` with its
            /// [`StreamStage::Init`]($crate::streams::StreamStage::Init)
            /// stream, exactly as the scalar adapter initializes it.
            fn init<P: $crate::protocol::Protocol<Agent = $agent>>(
                protocol: &P,
                config: &$crate::population::PopulationConfig,
                streams: &$crate::streams::RoundStreams,
            ) -> Self {
                $cols::from_fn(config.n(), |id| {
                    let mut rng = streams.rng(id, $crate::streams::StreamStage::Init);
                    protocol.init_agent(config.role_of(id), &mut rng)
                })
            }

            /// A population of `n ≥ 1` agents, agent `id` being `agent(id)`;
            /// the shared fields are agent 0's, which every agent must
            /// share. Lanes are allocated filled with agent 0's entries and
            /// overwritten by index, which keeps the loop free of capacity
            /// checks and branches.
            fn from_fn(n: usize, mut agent: impl FnMut(usize) -> $agent) -> Self {
                let first = agent(0);
                let mut cols = $cols {
                    $($sf: first.$sf,)*
                    $first: vec![first.$first; n],
                    $($lf: vec![first.$lf; n],)*
                };
                {
                    let $first = &mut cols.$first[..n];
                    $(let $lf = &mut cols.$lf[..n];)*
                    for i in 1..n {
                        let next = agent(i);
                        $(debug_assert!(next.$sf == cols.$sf, "shared field `{}` differs", stringify!($sf));)*
                        $first[i] = next.$first;
                        $($lf[i] = next.$lf;)*
                    }
                }
                cols
            }

            /// Splits the lanes into disjoint chunk views of `chunk_len`
            /// agents (the last may be shorter), in agent order.
            fn split_lanes(&mut self, chunk_len: usize) -> Vec<$chunk<'_>> {
                let chunk_len = chunk_len.max(1);
                let mut out = Vec::with_capacity(self.$first.len().div_ceil(chunk_len));
                let mut $first = self.$first.as_mut_slice();
                $(let mut $lf = self.$lf.as_mut_slice();)*
                while !$first.is_empty() {
                    let take = chunk_len.min($first.len());
                    out.push($chunk {
                        $($sf: self.$sf,)*
                        $first: {
                            let (head, tail) = std::mem::take(&mut $first).split_at_mut(take);
                            $first = tail;
                            head
                        },
                        $($lf: {
                            let (head, tail) = std::mem::take(&mut $lf).split_at_mut(take);
                            $lf = tail;
                            head
                        },)*
                    });
                }
                out
            }
        }

        impl $crate::protocol::AgentRecords for $cols {
            type Agent = $agent;

            fn agent(&self, id: usize) -> $agent {
                $agent {
                    $($sf: self.$sf,)*
                    $first: self.$first[id],
                    $($lf: self.$lf[id],)*
                }
            }

            fn set_agent(&mut self, id: usize, agent: $agent) {
                $(debug_assert!(agent.$sf == self.$sf, "shared field `{}` differs", stringify!($sf));)*
                self.$first[id] = agent.$first;
                $(self.$lf[id] = agent.$lf;)*
            }

            fn from_agents(agents: Vec<$agent>) -> $crate::Result<Self> {
                if agents.is_empty() {
                    return Err($crate::EngineError::BadSnapshot {
                        detail: concat!(stringify!($cols), " holds no agents").into(),
                    });
                }
                $(
                    if let Some(id) = agents.iter().position(|agent| agent.$sf != agents[0].$sf) {
                        return Err($crate::EngineError::BadSnapshot {
                            detail: format!(
                                "agent {id} disagrees with agent 0 on `{}`",
                                stringify!($sf)
                            ),
                        });
                    }
                )*
                Ok($cols::from_fn(agents.len(), |id| agents[id].clone()))
            }
        }

        impl $crate::protocol::RecordChunk for $chunk<'_> {
            type Agent = $agent;

            #[inline]
            fn for_each_record(&mut self, mut f: impl FnMut(usize, &mut $agent)) {
                // Re-slicing every lane to one length lets the compiler
                // drop the per-lane bounds checks in the loop.
                let n = self.$first.len();
                let $first = &mut self.$first[..n];
                $(let $lf = &mut self.$lf[..n];)*
                for i in 0..n {
                    let mut agent = $agent {
                        $($sf: self.$sf,)*
                        $first: $first[i],
                        $($lf: $lf[i],)*
                    };
                    f(i, &mut agent);
                    $first[i] = agent.$first;
                    $($lf[i] = agent.$lf;)*
                }
            }
        }
    };
}
