(* Gate-class views used by the commutation and merge rules. *)

let diagonal_one_qubit = function
  | Gate.Z q | Gate.S q | Gate.Sdg q | Gate.T q | Gate.Tdg q
  | Gate.Rz (_, q) | Gate.Phase (_, q) ->
    Some q
  | Gate.X _ | Gate.Y _ | Gate.H _ | Gate.Rx _ | Gate.Ry _ | Gate.Cnot _
  | Gate.Cz _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
    None

(* NOT-family gates: a bit flip on [target] controlled by [controls]. *)
let not_family = function
  | Gate.X q -> Some ([], q)
  | Gate.Cnot { control; target } -> Some ([ control ], target)
  | Gate.Toffoli { c1; c2; target } -> Some ([ c1; c2 ], target)
  | Gate.Mct { controls; target } -> Some (controls, target)
  | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _ | Gate.T _
  | Gate.Tdg _ | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ | Gate.Cz _
  | Gate.Swap _ ->
    None

let disjoint a b = List.for_all (fun q -> not (List.mem q b)) a

(* [commutes] with both supports already in hand: the cancellation
   sweep calls this up to 2x lookback times per incoming gate, and
   [Gate.support] allocates a [sort_uniq] per call — so supports are
   computed once per gate and threaded through (see [cancel_pass]). *)
let commutes_with_support sg g sh h =
  if disjoint sg sh then true
  else if Gate.equal g h then true
  else
    let diag gate =
      match gate with
      | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rz _
      | Gate.Phase _ | Gate.Cz _ ->
        true
      | Gate.X _ | Gate.Y _ | Gate.H _ | Gate.Rx _ | Gate.Ry _ | Gate.Cnot _
      | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
        false
    in
    if diag g && diag h then true
    else
      (* A diagonal gate commutes with a NOT-family gate whose target it
         avoids (the controls only read the bits the diagonal phase
         depends on); an X on the target commutes with the bit flip;
         two NOT-family gates commute when neither target is the
         other's control. *)
      let diag_vs_not d nf =
        match (d, not_family nf) with
        | _, None -> false
        | gate, Some (_, target) -> (
          match gate with
          | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _
          | Gate.Rz _ | Gate.Phase _ -> (
            match diagonal_one_qubit gate with
            | Some q -> q <> target
            | None -> false)
          | Gate.Cz (a, b) -> target <> a && target <> b
          | Gate.X _ | Gate.Y _ | Gate.H _ | Gate.Rx _ | Gate.Ry _
          | Gate.Cnot _ | Gate.Swap _ | Gate.Toffoli _ | Gate.Mct _ ->
            false)
      in
      (* Same-wire same-axis pairs: X and Rx are both functions of the
         Pauli X (likewise Y/Ry), so they commute on a shared wire.
         The old table missed these — Rx is neither diagonal nor
         NOT-family — silently blocking rotation merges through an
         interposed X. *)
      let x_axis = function
        | Gate.X a | Gate.Rx (_, a) -> Some a
        | _ -> None
      and y_axis = function
        | Gate.Y a | Gate.Ry (_, a) -> Some a
        | _ -> None
      in
      let same_axis_pair =
        (match (x_axis g, x_axis h) with
        | Some a, Some b -> a = b
        | _ -> false)
        ||
        match (y_axis g, y_axis h) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      (* An Rx on the target of a NOT-family gate commutes with it: the
         controlled bit flip acts as X (or I) on the target, and Rx is
         a function of X.  (Plain X-on-target was already covered by
         the NOT-family pair rule below; Rx was not.) *)
      let rx_vs_not r nf =
        match (r, not_family nf) with
        | Gate.Rx (_, q), Some (_, target) -> q = target
        | _ -> false
      in
      if diag g && diag_vs_not g h then true
      else if diag h && diag_vs_not h g then true
      else if same_axis_pair then true
      else if rx_vs_not g h || rx_vs_not h g then true
      else
        match (not_family g, not_family h) with
        | Some (cg, tg), Some (ch, th) ->
          (not (List.mem tg ch)) && not (List.mem th cg)
        | (Some _ | None), (Some _ | None) -> false

let commutes g h =
  commutes_with_support (Gate.support g) g (Gate.support h) h

let same_pair (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

(* [merge_gates g h]: [g] happens first, [h] second.  All fusion rules
   used here are between diagonal or same-axis gates, so order does not
   matter. *)
let merge_gates g h =
  let cancel = Some [] in
  let near_zero theta = abs_float theta < 1e-12 in
  (* Phase-family fusion: Z, S, Sdg, T, Tdg and Phase all read as
     diag(1, e^(i theta)), and e^(i a) e^(i b) folds mod 2 pi with no
     global-phase residue — so T.T = S, S.Z = Sdg, T.Phase(x) =
     Phase(pi/4 + x), and inverse pairs cancel, all in one rule. *)
  let phase_fusion () =
    match (Gate.phase_angle g, Gate.phase_angle h) with
    | Some (a, qa), Some (b, qb) when qa = qb ->
      Some
        (match Gate.phase_gate (a +. b) qa with
        | None -> []
        | Some fused -> [ fused ])
    | (Some _ | None), (Some _ | None) -> None
  in
  match phase_fusion () with
  | Some replacement -> Some replacement
  | None -> (
    match (g, h) with
    | Gate.X a, Gate.X b | Gate.Y a, Gate.Y b | Gate.H a, Gate.H b when a = b
      ->
      cancel
    (* Same-axis rotations add their angles.  The sum is kept unfolded:
       folding by 2 pi would silently change the global phase
       (Rz(2 pi) = -I), and the optimizer promises exactness. *)
    | Gate.Rx (ta, a), Gate.Rx (tb, b) when a = b ->
      let sum = ta +. tb in
      if near_zero sum then cancel else Some [ Gate.Rx (sum, a) ]
    | Gate.Ry (ta, a), Gate.Ry (tb, b) when a = b ->
      let sum = ta +. tb in
      if near_zero sum then cancel else Some [ Gate.Ry (sum, a) ]
    | Gate.Rz (ta, a), Gate.Rz (tb, b) when a = b ->
      let sum = ta +. tb in
      if near_zero sum then cancel else Some [ Gate.Rz (sum, a) ]
    | ( Gate.Cnot { control = c1; target = t1 },
        Gate.Cnot { control = c2; target = t2 } )
      when c1 = c2 && t1 = t2 ->
      cancel
    | Gate.Cz (a1, b1), Gate.Cz (a2, b2) when same_pair (a1, b1) (a2, b2) ->
      cancel
    | Gate.Swap (a1, b1), Gate.Swap (a2, b2) when same_pair (a1, b1) (a2, b2)
      ->
      cancel
    | Gate.Toffoli a, Gate.Toffoli b
      when a.target = b.target && same_pair (a.c1, a.c2) (b.c1, b.c2) ->
      cancel
    | Gate.Mct a, Gate.Mct b
      when a.target = b.target
           && List.sort Int.compare a.controls
              = List.sort Int.compare b.controls ->
      cancel
    | _, _ -> None)

let cancel_pass ?(lookback = 50) c =
  (* [acc] holds processed gates in reverse order (head = most recent),
     each paired with its precomputed support so the backward scan never
     recomputes [Gate.support].  For each incoming gate, scan back
     through gates it commutes with, looking for a merge partner; the
     replacement lands at the partner's position, which is sound because
     the current gate commutes with everything in between. *)
  let with_support g = (g, Gate.support g) in
  let rec try_merge acc (g, sg) depth =
    match acc with
    | [] -> None
    | ((h, sh) as entry) :: earlier ->
      if depth <= 0 then None
      else begin
        match merge_gates h g with
        | Some replacement ->
          Some (List.rev_append (List.map with_support replacement) earlier)
        | None ->
          if commutes_with_support sg g sh h then
            match try_merge earlier (g, sg) (depth - 1) with
            | Some earlier' -> Some (entry :: earlier')
            | None -> None
          else None
      end
  in
  let step acc g =
    let entry = with_support g in
    match try_merge acc entry lookback with
    | Some acc' -> acc'
    | None -> entry :: acc
  in
  Circuit.make ~n:(Circuit.n_qubits c)
    (List.rev_map fst (Circuit.fold step [] c))

let rewrite_pass ?device c =
  let direction_ok ~control ~target =
    match device with
    | None -> true
    | Some d -> Device.allows_cnot d ~control ~target
  in
  let rec go gates =
    match gates with
    (* Fig. 6 pattern collapse: 4 H around a CNOT are the opposite
       CNOT.  Only rewrite when the new direction is legal. *)
    | Gate.H a :: Gate.H b
      :: Gate.Cnot { control; target }
      :: Gate.H a' :: Gate.H b' :: rest
      when a <> b
           && same_pair (a, b) (control, target)
           && same_pair (a', b') (control, target)
           && direction_ok ~control:target ~target:control ->
      go (Gate.Cnot { control = target; target = control } :: rest)
    (* H-conjugation: H X H = Z and H Z H = X, exactly. *)
    | Gate.H a :: Gate.X b :: Gate.H a' :: rest when a = b && a = a' ->
      go (Gate.Z a :: rest)
    | Gate.H a :: Gate.Z b :: Gate.H a' :: rest when a = b && a = a' ->
      go (Gate.X a :: rest)
    | g :: rest -> g :: go rest
    | [] -> []
  in
  Circuit.make ~n:(Circuit.n_qubits c) (go (Circuit.gates c))

(* Identity-window removal: the longest window the pass tries.  Packed
   memo keys spend 10 bits per gate, so 6 gates fill 60 of the 63 bits
   of an OCaml int. *)
let max_window = 6

(* Window-signature memo for the identity test.  A window's signature
   renames its qubits 0, 1, 2 in first-seen order — [H 7; X 9; H 7] and
   [H 0; X 2; H 0] both become [H 0; X 1; H 0] — and being the identity
   does not change under qubit relabeling, so each distinct signature
   pays for one dense [Sim.unitary] ever, across sweeps and across
   circuits.  A parameter-free signature packs injectively into an int
   ([packed_code] per gate); one holding a rotation keeps its renamed
   gate list as the key.  The table is a pure cache: on overflow it is
   dropped wholesale and verdicts are simply re-simulated.

   Ownership: the table lives in domain-local storage, one table per
   domain.  Domain-parallel compiles (the Parallel runner) each get a
   private memo and never contend; the verdict is a pure function of
   the signature, so duplicated entries across domains cost only the
   re-simulation.  Within one domain the table is still a plain
   Hashtbl — sys-threads of the same domain must not run optimize
   concurrently (the serve daemon's compile lock enforces this). *)
type window_key = Packed of int | Gates of Gate.t list

module Window_memo = Hashtbl.Make (struct
  type t = window_key

  let equal a b =
    match (a, b) with
    | Packed x, Packed y -> Int.equal x y
    | Gates x, Gates y -> List.equal Gate.equal x y
    | Packed _, Gates _ | Gates _, Packed _ -> false

  let hash = function
    | Packed k -> Hashtbl.hash k
    | Gates gates -> Hashtbl.hash gates
end)

let window_memo_key : bool Window_memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Window_memo.create 4096)

let window_memo_limit = 65536

(* Gates whose matrix can be arbitrarily close to the identity
   (vanishing angle).  Every other library gate is at distance >=
   |e^(i pi/4) - 1| ~ 0.765 from the identity, many orders of magnitude
   above the 1e-9 tolerance. *)
let near_identity_possible = function
  | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ -> true
  | Gate.X _ | Gate.Y _ | Gate.Z _ | Gate.H _ | Gate.S _ | Gate.Sdg _
  | Gate.T _ | Gate.Tdg _ | Gate.Cnot _ | Gate.Cz _ | Gate.Swap _
  | Gate.Toffoli _ | Gate.Mct _ ->
    false

(* One gate's 10-bit slice of a packed key: a kind code in 1..15 (never
   0, so a key also fixes its window length) and up to three 2-bit
   qubit labels in constructor order.  [Mct] splits by control count;
   the rotations, and an [Mct] with more than two controls, have no
   packed form. *)
let packed_code kind a b c = kind lor (a lsl 4) lor (b lsl 6) lor (c lsl 8)

let remove_identity_windows c =
  let memo = Domain.DLS.get window_memo_key in
  (* The window growing from one position, one gate at a time, is
     [window.(0 .. w-1)].  Label [l] (first-seen order) stands for qubit
     [qubits.(l)], touched by [touches.(l)] window gates, the last of
     them [window.(toucher.(l))].  Per window length [w]: its qubit
     count, whether a lone-touch rejects it, and its packed key (valid
     while [w <= !packable]).  Every helper below takes its position
     explicitly, so growing and checking windows allocates no
     closures. *)
  let window = Array.make max_window (Gate.X 0)
  and qubits = Array.make 3 0
  and touches = Array.make 3 0
  and toucher = Array.make 3 (-1)
  and labels = ref 0
  and packable = ref 0 in
  let width = Array.make (max_window + 1) 0
  and lone = Array.make (max_window + 1) false
  and key = Array.make (max_window + 1) 0 in
  (* The label of qubit [q] (searching from label [l]), assigning the
     next one to a new qubit; -1 when [q] would be a fourth qubit. *)
  let rec label_of q l =
    if l = !labels then
      if l = 3 then -1
      else begin
        qubits.(l) <- q;
        touches.(l) <- 0;
        toucher.(l) <- -1;
        labels := l + 1;
        l
      end
    else if qubits.(l) = q then l
    else label_of q (l + 1)
  in
  (* [label_of], counting window gate [j] as a toucher of [q]; a gate
     naming a qubit twice touches it once. *)
  let touch j q =
    let l = label_of q 0 in
    if l >= 0 && toucher.(l) <> j then begin
      touches.(l) <- touches.(l) + 1;
      toucher.(l) <- j
    end;
    l
  in
  let one j kind q =
    let a = touch j q in
    if a < 0 then -1 else packed_code kind a 0 0
  in
  let two j kind p q =
    let a = touch j p in
    if a < 0 then -1
    else
      let b = touch j q in
      if b < 0 then -1 else packed_code kind a b 0
  in
  let three j kind p q r =
    let a = touch j p in
    if a < 0 then -1
    else
      let b = touch j q in
      if b < 0 then -1
      else
        let c = touch j r in
        if c < 0 then -1 else packed_code kind a b c
  in
  (* Adds [g] as window gate [j]: its packed code, 0 when it fits but
     has no packed form, -1 when the support would exceed 3 qubits. *)
  let add j g =
    window.(j) <- g;
    match g with
    | Gate.X q -> one j 1 q
    | Gate.Y q -> one j 2 q
    | Gate.Z q -> one j 3 q
    | Gate.H q -> one j 4 q
    | Gate.S q -> one j 5 q
    | Gate.Sdg q -> one j 6 q
    | Gate.T q -> one j 7 q
    | Gate.Tdg q -> one j 8 q
    | Gate.Rx (_, q) | Gate.Ry (_, q) | Gate.Rz (_, q) | Gate.Phase (_, q) ->
      if touch j q < 0 then -1 else 0
    | Gate.Cnot { control; target } -> two j 9 control target
    | Gate.Cz (a, b) -> two j 10 a b
    | Gate.Swap (a, b) -> two j 11 a b
    | Gate.Toffoli { c1; c2; target } -> three j 12 c1 c2 target
    | Gate.Mct { controls = []; target } -> one j 13 target
    | Gate.Mct { controls = [ c1 ]; target } -> two j 14 c1 target
    | Gate.Mct { controls = [ c1; c2 ]; target } -> three j 15 c1 c2 target
    | Gate.Mct { controls; target } ->
      if List.for_all (fun q -> touch j q >= 0) (target :: controls) then 0
      else -1
  in
  (* Cheap sound rejection: a qubit touched by exactly one window gate
     forces that gate to act as the identity on it.  Factoring the
     window unitary over the lone qubit's operator blocks shows the gate
     would have to be within ~4 eps of V (x) I for some unitary V on its
     other qubits — and every parameter-free library gate is at
     distance O(1) from that set.  Only near-zero-angle rotations can
     pass, so they are exempt and fall through to the simulation. *)
  let rec lone_touch l =
    l < !labels
    && ((touches.(l) = 1 && not (near_identity_possible window.(toucher.(l))))
       || lone_touch (l + 1))
  in
  (* Grows the window from [w] gates over the following [gates] until
     it reaches [max_window] gates, the end of the circuit, or a fourth
     qubit; returns its length. *)
  let rec grow gates w =
    match gates with
    | g :: rest when w < max_window ->
      let code = add w g in
      if code < 0 then w
      else begin
        let w' = w + 1 in
        width.(w') <- !labels;
        lone.(w') <- lone_touch 0;
        if !packable = w && code > 0 then begin
          key.(w') <- key.(w) lor (code lsl (10 * w));
          packable := w'
        end;
        grow rest w'
      end
    | _ -> w
  in
  let signature w =
    List.init w (fun j -> Gate.rename (fun q -> label_of q 0) window.(j))
  in
  let simulated_verdict w =
    let k = if w <= !packable then Packed key.(w) else Gates (signature w) in
    match Window_memo.find_opt memo k with
    | Some verdict -> verdict
    | None ->
      let signature = match k with Gates s -> s | Packed _ -> signature w in
      let compact = Circuit.make ~n:width.(w) signature in
      let verdict =
        Mathkit.Matrix.is_identity ~eps:1e-9 (Sim.unitary compact)
      in
      if Window_memo.length memo >= window_memo_limit then
        Window_memo.reset memo;
      Window_memo.replace memo k verdict;
      verdict
  in
  (* Tries the grown windows from the longest down: the length of the
     first identity window, or 0. *)
  let rec try_window w =
    if w < 2 then 0
    else if
      (* Exact-inverse pair: g then (adjoint g) multiplies to the
         identity by construction; no simulation needed. *)
      (w = 2 && Gate.equal window.(1) (Gate.adjoint window.(0)))
      || ((not lone.(w)) && simulated_verdict w)
    then w
    else try_window (w - 1)
  in
  let rec drop k gates = if k = 0 then gates else drop (k - 1) (List.tl gates) in
  (* The deleted windows as (first position, length), last one first. *)
  let rec scan i gates deleted =
    match gates with
    | [] -> deleted
    | _ :: rest -> (
      labels := 0;
      packable := 0;
      match try_window (grow gates 0) with
      | 0 -> scan (i + 1) rest deleted
      | w -> scan (i + w) (drop w gates) ((i, w) :: deleted))
  in
  match List.rev (scan 0 (Circuit.gates c) []) with
  | [] -> c
  | deleted ->
    let pending = ref deleted in
    let kept i _ =
      match !pending with
      | (first, w) :: later when i >= first ->
        if i = first + w - 1 then pending := later;
        false
      | _ -> true
    in
    Circuit.make ~n:(Circuit.n_qubits c) (List.filteri kept (Circuit.gates c))

type outcome = {
  circuit : Circuit.t;
  iterations : int;
  hit_iteration_cap : bool;
  hit_deadline : bool;
}

let optimize_budgeted ?device ?(cost = Cost.eqn2) ?(trace = Trace.disabled)
    ?(stage = "optimize") ?(rules = Rewrite.default_selection)
    ?(rewrite_check = false) ?max_iterations ?deadline_ns c =
  (* The template/rotation/phase/Clifford tier sits between the
     peephole passes and identity-window removal: it is internally
     cost-guarded (a pass that does not improve [cost] is dropped) and,
     with [rewrite_check], oracle-checked with revert-on-reject. *)
  let rewrite_tier circuit =
    if Rewrite.selection_is_empty rules then circuit
    else
      (Rewrite.apply ?device ~selection:rules ~cost ~check:rewrite_check
         ~trace circuit)
        .Rewrite.circuit
  in
  let pass circuit =
    circuit |> cancel_pass |> rewrite_pass ?device |> rewrite_tier
    |> remove_identity_windows
  in
  let past_deadline () =
    match deadline_ns with
    | None -> false
    | Some d -> Int64.compare (Trace.now_ns ()) d > 0
  in
  let capped i =
    match max_iterations with None -> false | Some cap -> i > cap
  in
  (* One span per fixpoint iteration, the rejected final sweep included:
     its wall time is paid whether or not the result is kept.  Budgets
     are checked before starting a sweep, so a capped run returns the
     best circuit found so far rather than aborting. *)
  let rec loop i best best_cost =
    if capped i then
      { circuit = best; iterations = i - 1;
        hit_iteration_cap = true; hit_deadline = false }
    else if past_deadline () then
      { circuit = best; iterations = i - 1;
        hit_iteration_cap = false; hit_deadline = true }
    else begin
      let sp =
        Trace.start_with trace (Printf.sprintf "%s/iteration-%d" stage i) ~cost
          best
      in
      let candidate = pass best in
      let candidate_cost = Cost.evaluate cost candidate in
      let improved = candidate_cost < best_cost in
      Trace.stop_with trace sp ~cost
        ~counters:[ ("improved", if improved then 1.0 else 0.0) ]
        candidate;
      (* [iterations] counts accepted sweeps on every exit path: the
         final sweep of a converged run was rejected, so it reports
         [i - 1] exactly like the cap and deadline branches do. *)
      if improved then loop (i + 1) candidate candidate_cost
      else
        { circuit = best; iterations = i - 1;
          hit_iteration_cap = false; hit_deadline = false }
    end
  in
  loop 1 c (Cost.evaluate cost c)

let optimize ?device ?cost ?trace ?stage ?rules ?rewrite_check c =
  (optimize_budgeted ?device ?cost ?trace ?stage ?rules ?rewrite_check c)
    .circuit

(* ---- abstract-state folding ------------------------------------------ *)

type fold_outcome = {
  circuit : Circuit.t;
  deleted : int;
  demoted : int;
  checked : bool;
  ok : bool;
}

(* Do [a] and [b] prepare the same state from |0...0>?  Exact comparison
   (no up-to-phase allowance): every fold rewrite claims amplitude +1.
   Dense simulation while the state vector fits in memory; the QMDD
   engine above that — basis-state evolution keeps rank-1 diagrams
   compact even on the 96-qubit cascades. *)
let same_zero_state a b =
  let n = Circuit.n_qubits a in
  if n <= Sim.max_unitary_qubits then begin
    let sa = Sim.run a (Sim.basis_state ~n 0) in
    let sb = Sim.run b (Sim.basis_state ~n 0) in
    let ok = ref true in
    Array.iteri
      (fun i va ->
        if Mathkit.Cx.norm (Mathkit.Cx.sub va sb.(i)) > 1e-9 then ok := false)
      sa;
    !ok
  end
  else begin
    let m = Qmdd.create ~n in
    let from = Array.make n false in
    Qmdd.equal (Qmdd.run_basis m a ~from) (Qmdd.run_basis m b ~from)
  end

let fold_known_states ?(check = true) ?(trace = Trace.disabled) c =
  let span = Trace.start trace "fold-states" in
  let finish outcome =
    Trace.stop trace span
      ~counters:
        [
          ("deleted", float_of_int outcome.deleted);
          ("demoted", float_of_int outcome.demoted);
          ("checked", if outcome.checked then 1.0 else 0.0);
          ("ok", if outcome.ok then 1.0 else 0.0);
        ]
      ();
    outcome
  in
  let r = Absint.analyze c in
  if r.Absint.dead = [] && r.Absint.demoted = [] then
    finish { circuit = c; deleted = 0; demoted = 0; checked = false; ok = true }
  else begin
    let dead = Hashtbl.create 16 and demote = Hashtbl.create 16 in
    List.iter (fun (i, _, _) -> Hashtbl.replace dead i ()) r.Absint.dead;
    List.iter
      (fun (i, _, body, _) -> Hashtbl.replace demote i body)
      r.Absint.demoted;
    let gates =
      List.concat
        (List.mapi
           (fun i g ->
             if Hashtbl.mem dead i then []
             else
               match Hashtbl.find_opt demote i with
               | Some body -> body
               | None -> [ g ])
           (Circuit.gates c))
    in
    let folded = Circuit.make ~n:(Circuit.n_qubits c) gates in
    let deleted = Hashtbl.length dead and demoted = Hashtbl.length demote in
    if not check then
      finish { circuit = folded; deleted; demoted; checked = false; ok = true }
    else if same_zero_state c folded then
      finish { circuit = folded; deleted; demoted; checked = true; ok = true }
    else
      (* The oracle rejected a rewrite: an interpreter bug.  Keep the
         input — the pass must never be the place correctness dies. *)
      finish { circuit = c; deleted = 0; demoted = 0; checked = true; ok = false }
  end
