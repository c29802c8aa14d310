(** Local circuit optimization driven by the quantum cost function
    (Section 4, items 5 and 6 of the paper's procedure list).

    Two families of transformations, both applied recursively until the
    cost stops decreasing:

    - removing gate partitions that equal the identity — adjacent
      inverse pairs (modulo commutation through intervening gates) and
      short windows whose product is the identity matrix;
    - rewriting gate partitions with cheaper logically-identical
      templates — diagonal-gate fusion (T.T = S, S.S = Z, ...),
      H-conjugation identities (H X H = Z), and collapsing Fig. 6
      reversal patterns back into bare CNOTs.

    Every pass preserves the circuit's unitary exactly (not merely up to
    global phase) and never increases the cost.  When a [device] is
    supplied, rewrites never introduce a CNOT the coupling map forbids,
    so optimizing a mapped circuit keeps it mapped.

    {b Ownership rule.}  The module's only mutable state is the
    identity-window memo table (window signature to identity verdict),
    which lives in domain-local storage ([Domain.DLS]): each domain
    owns a private table, so domain-parallel compiles never contend and
    produce identical results (the cached verdict is a pure function of
    the window signature, and the table is dropped wholesale at 65 536
    entries).  A scan's window state is local to the call.  Sys-threads
    {e within} one domain must not run optimize passes concurrently —
    callers that mix threads and optimization (the serve daemon)
    serialize compiles per domain. *)

(** [commutes g h] is a sound (not complete) commutation test: [true]
    means the gates provably commute.  Covers disjoint supports,
    diagonal gates, control sharing, target sharing of NOT-family
    gates, same-wire same-axis pairs (X/Rx and Y/Ry), and Rx on a
    NOT-family gate's target. *)
val commutes : Gate.t -> Gate.t -> bool

(** [merge_gates g h] combines the earlier gate [g] with the later gate
    [h] when they act on the same qubits: [Some []] when they cancel,
    [Some [f]] when they fuse into one cheaper gate, [None] otherwise. *)
val merge_gates : Gate.t -> Gate.t -> Gate.t list option

(** [cancel_pass ?lookback c] sweeps once, cancelling or fusing each
    gate with an earlier gate when everything between commutes with it.
    [lookback] bounds the scan depth (default 50). *)
val cancel_pass : ?lookback:int -> Circuit.t -> Circuit.t

(** [rewrite_pass ?device c] applies peephole templates: Fig. 6
    reversal collapse (only when the resulting CNOT direction is legal
    on [device], or unconditionally without one) and H-conjugation
    rewrites. *)
val rewrite_pass : ?device:Device.t -> Circuit.t -> Circuit.t

(** [remove_identity_windows c] deletes contiguous gate windows (up to
    6 gates, spanning at most 3 qubits) whose product is exactly the
    identity, in one left-to-right scan: at each position the longest
    identity window wins and the scan resumes past it, so a pair that a
    deletion makes adjacent waits for the next fixpoint sweep.  Each
    window is grown one gate at a time and stops at a fourth qubit, so
    wider windows are never built.  Identity verdicts are memoized on
    the window's signature (qubits renamed in first-seen order; an int
    key when every gate is parameter-free) and guarded by sound
    pre-filters (exact inverse pairs; qubits touched by a single
    parameter-free gate), so the dense simulation only runs on cache
    misses — the result is identical to checking every window. *)
val remove_identity_windows : Circuit.t -> Circuit.t

(** What a budgeted optimization run produced and why it stopped. *)
type outcome = {
  circuit : Circuit.t;  (** the cheapest circuit seen *)
  iterations : int;
      (** accepted fixpoint sweeps — sweeps whose result was kept.  A
          converged run's final sweep is rejected (it found no
          improvement) and is {e not} counted, matching the cap and
          deadline paths; with a recording trace, the span count is
          [iterations + 1] when the run converged. *)
  hit_iteration_cap : bool;
      (** stopped by [max_iterations] before reaching a fixed point *)
  hit_deadline : bool;  (** stopped by [deadline_ns] *)
}

(** [optimize_budgeted ?device ?cost ?trace ?stage ?rules
    ?rewrite_check ?max_iterations ?deadline_ns c] runs all passes
    toward a fixed point of the cost function (default {!Cost.eqn2}),
    stopping early — with the best circuit found so far, never an
    exception — when the sweep count would exceed [max_iterations] or
    the monotonic clock passes [deadline_ns] (a {!Trace.now_ns}
    instant).  Budgets are checked between sweeps, so a single sweep is
    the granularity of the deadline.  The result never costs more than
    the input.

    Each sweep also runs the {!Rewrite} tier — templates, rotation
    merging, phase-polynomial merging, Clifford normalization — under
    the rule selection [rules] (default {!Rewrite.default_selection};
    pass {!Rewrite.empty_selection} to disable the tier).  With
    [rewrite_check], every tier application is validated by the exact
    equivalence oracle and reverted on rejection (strict mode).

    When [trace] is a recording sink, every fixpoint iteration records
    one span named ["<stage>/iteration-<i>"] (default stage
    ["optimize"]) with before/after snapshots under [cost] and an
    [improved] counter — the final, rejected sweep included, since its
    time is spent either way — and the tier bumps one
    ["rewrite/<rule>"] counter per applied rule. *)
val optimize_budgeted :
  ?device:Device.t ->
  ?cost:Cost.t ->
  ?trace:Trace.t ->
  ?stage:string ->
  ?rules:Rewrite.selection ->
  ?rewrite_check:bool ->
  ?max_iterations:int ->
  ?deadline_ns:int64 ->
  Circuit.t ->
  outcome

(** [optimize ?device ?cost ?trace ?stage ?rules ?rewrite_check c] is
    [(optimize_budgeted ... c).circuit] with no budgets: runs to the
    fixed point. *)
val optimize :
  ?device:Device.t ->
  ?cost:Cost.t ->
  ?trace:Trace.t ->
  ?stage:string ->
  ?rules:Rewrite.selection ->
  ?rewrite_check:bool ->
  Circuit.t ->
  Circuit.t

(** What {!fold_known_states} did. *)
type fold_outcome = {
  circuit : Circuit.t;
  deleted : int;  (** gates removed as provably dead *)
  demoted : int;  (** gates replaced by a cheaper proved-equivalent body *)
  checked : bool;  (** the oracle ran (facts found and [check] was on) *)
  ok : bool;  (** the oracle accepted; [false] reverts to the input *)
}

(** [fold_known_states ?check ?trace c] rewrites [c] using the facts the
    {!Absint} interpreter proves about the state prepared from |0...0>:
    gates reported dead are deleted, gates with constant controls are
    demoted to their uncontrolled bodies (CNOT with a proved-|1> control
    becomes X; by phase kickback, a CNOT onto a proved |-> target
    becomes Z on its control).

    Unlike every other pass in this module, the result preserves the
    {e prepared state}, not the full unitary — running the folded
    circuit from any input other than |0...0> may differ.  That is why
    the pass is off by default in {!Compiler.compile} (the [--fold-states]
    flag turns it on) and why the pipeline's unitary-equivalence
    verification compares against the pre-fold circuit.

    With [check] (the default), the folded circuit is re-validated
    against the input by an exact zero-input-state oracle — dense
    simulation up to {!Sim.max_unitary_qubits} wires, QMDD basis-state
    evolution beyond — and on rejection the input comes back unchanged
    with [ok = false].  Demotions only introduce gates from the NOT/Z
    families on wires the original gate touched, so a device-legal
    native circuit stays device-legal.  Records a ["fold-states"] span
    with deleted/demoted counters on [trace]. *)
val fold_known_states :
  ?check:bool -> ?trace:Trace.t -> Circuit.t -> fold_outcome
