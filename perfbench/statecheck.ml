(* Basis-state simulation for the benchmark's output checks.

   A state is kept as a product of groups: each group is a dense
   amplitude vector over the few qubits that are entangled with each
   other, every other qubit sits in a group of its own.  A gate merges
   the groups of its qubits, applies its [Gate.apply_basis] column (the
   semantics [Sim.run] uses) to that group only, and then splits off
   every qubit that has become separable again.  Compiled reversible
   circuits and the QFT keep groups tiny on basis inputs, so a 96-qubit,
   10^5-gate output runs in a fraction of a second -- where the dense
   simulator stops at ~20 qubits and a QMDD basis run takes minutes.

   The check never consults the compiler or the QMDD engine. *)

module Cx = Mathkit.Cx

(* Position 0 of [qubits] is the most significant bit of an [amps]
   index, the convention of [Gate.apply_basis]. *)
type group = { qubits : int array; mutable amps : Cx.t array }

type t = {
  owner : int array;  (** qubit -> id of the group holding it *)
  groups : (int, group) Hashtbl.t;
  mutable next_id : int;
}

(* Raised when a group would outgrow a dense vector: the state is too
   entangled for this checker. *)
exception Too_entangled

let max_group = 20

let add_group st g =
  let id = st.next_id in
  st.next_id <- id + 1;
  Hashtbl.replace st.groups id g;
  Array.iter (fun q -> st.owner.(q) <- id) g.qubits

(* |bits>: qubit q is in state |bits.(q)>. *)
let basis bits =
  let n = Array.length bits in
  let st = { owner = Array.make n 0; groups = Hashtbl.create n; next_id = 0 } in
  Array.iteri
    (fun q b ->
      add_group st
        {
          qubits = [| q |];
          amps = (if b then [| Cx.zero; Cx.one |] else [| Cx.one; Cx.zero |]);
        })
    bits;
  st

let kron a b =
  let nb = Array.length b.amps in
  {
    qubits = Array.append a.qubits b.qubits;
    amps =
      Array.init
        (Array.length a.amps * nb)
        (fun i -> Cx.mul a.amps.(i / nb) b.amps.(i mod nb));
  }

(* The one group holding every qubit of [qubits], merging groups. *)
let gather st qubits =
  match List.sort_uniq compare (List.map (fun q -> st.owner.(q)) qubits) with
  | [] -> invalid_arg "Statecheck.gather: no qubits"
  | [ id ] -> Hashtbl.find st.groups id
  | first :: rest ->
    let take id =
      let g = Hashtbl.find st.groups id in
      Hashtbl.remove st.groups id;
      g
    in
    let g =
      List.fold_left (fun acc id -> kron acc (take id)) (take first) rest
    in
    if Array.length g.qubits > max_group then raise Too_entangled;
    add_group st g;
    g

let position g q =
  let rec find i = if g.qubits.(i) = q then i else find (i + 1) in
  find 0

(* Index of the full group vector with bit [b] at position [p], given
   the index [j] of the vector over the other k-1 positions. *)
let with_bit ~k ~p b j =
  let low = k - 1 - p in
  ((j lsr low) lsl (low + 1)) lor (b lsl low) lor (j land ((1 lsl low) - 1))

let inner a b =
  (* <a|b> *)
  let acc = ref Cx.zero in
  Array.iteri (fun i x -> acc := Cx.add !acc (Cx.mul (Cx.conj x) b.(i))) a;
  !acc

let norm v =
  sqrt (Array.fold_left (fun acc x -> acc +. (Cx.norm x ** 2.0)) 0.0 v)

(* [split g p] factors the qubit at position [p] out of [g]:
   [Some (qubit_amps, rest_amps)] with [g = qubit (x) rest] when the
   qubit is separable. *)
let split g p =
  let k = Array.length g.qubits in
  let half = 1 lsl (k - 1) in
  let row b = Array.init half (fun j -> g.amps.(with_bit ~k ~p b j)) in
  let r0 = row 0 and r1 = row 1 in
  let n0 = norm r0 and n1 = norm r1 in
  let big, small, big_bit = if n0 >= n1 then (r0, r1, 0) else (r1, r0, 1) in
  let nb = Float.max n0 n1 in
  let rest = Array.map (Cx.scale (1.0 /. nb)) big in
  let c = inner rest small in
  let residual =
    norm (Array.mapi (fun j x -> Cx.sub x (Cx.mul c rest.(j))) small)
  in
  if residual > 1e-9 then None
  else
    let q = Array.make 2 Cx.zero in
    q.(big_bit) <- Cx.of_float nb;
    q.(1 - big_bit) <- c;
    Some (q, rest)

(* Split every separable qubit out of [g]. *)
let rec factor st g =
  let k = Array.length g.qubits in
  if k > 1 then
    let rec try_from p =
      if p < k then
        match split g p with
        | None -> try_from (p + 1)
        | Some (q, rest) ->
          Hashtbl.remove st.groups st.owner.(g.qubits.(p));
          add_group st { qubits = [| g.qubits.(p) |]; amps = q };
          let rest =
            {
              qubits =
                Array.of_list
                  (List.filteri (fun i _ -> i <> p) (Array.to_list g.qubits));
              amps = rest;
            }
          in
          add_group st rest;
          factor st rest
    in
    try_from 0

let apply st gate =
  let g = gather st (Gate.support gate) in
  let k = Array.length g.qubits in
  let local = Gate.rename (position g) gate in
  let out = Array.make (Array.length g.amps) Cx.zero in
  Array.iteri
    (fun idx amp ->
      if Cx.norm amp > 0.0 then
        List.iter
          (fun (w, row) -> out.(row) <- Cx.add out.(row) (Cx.mul w amp))
          (Gate.apply_basis ~n:k local idx))
    g.amps;
  g.amps <- out;
  factor st g

(* The state circuit [c] prepares from basis state [from]. *)
let run c ~from =
  let st = basis from in
  Circuit.iter (apply st) c;
  st

(* Merge groups until [a] and [b] are partitioned alike. *)
let rec coarsen a b =
  let merged = ref false in
  let align x y =
    Hashtbl.iter
      (fun _ g ->
        let ids =
          List.sort_uniq compare
            (List.map (fun q -> y.owner.(q)) (Array.to_list g.qubits))
        in
        let size id = Array.length (Hashtbl.find y.groups id).qubits in
        let covered = List.fold_left (fun acc id -> acc + size id) 0 ids in
        if List.length ids > 1 || covered <> Array.length g.qubits then
          merged := true)
      (Hashtbl.copy x.groups);
    if !merged then
      Hashtbl.iter
        (fun _ g -> ignore (gather y (Array.to_list g.qubits)))
        (Hashtbl.copy x.groups)
  in
  align a b;
  align b a;
  if !merged then coarsen a b

(* How far state [b] is from state [a], global phase included: the
   largest residual of one of [a]'s groups after projecting it onto the
   matching group of [b], or the distance of the product of the
   per-group overlaps from 1, whichever is larger.  Raises
   [Too_entangled] when the two partitions only agree on a group too
   large for a dense vector. *)
let distance a b =
  if Array.length a.owner <> Array.length b.owner then
    invalid_arg "Statecheck.distance: widths differ";
  coarsen a b;
  let phase = ref Cx.one in
  let worst =
    Hashtbl.fold
      (fun _ ga worst ->
        let gb = Hashtbl.find b.groups b.owner.(ga.qubits.(0)) in
        let k = Array.length ga.qubits in
        (* Reorder [gb] into [ga]'s qubit order. *)
        let pos = Array.map (position gb) ga.qubits in
        let vb =
          Array.init (1 lsl k) (fun ia ->
              let ib = ref 0 in
              for p = 0 to k - 1 do
                if (ia lsr (k - 1 - p)) land 1 = 1 then
                  ib := !ib lor (1 lsl (k - 1 - pos.(p)))
              done;
              gb.amps.(!ib))
        in
        let c = inner vb ga.amps in
        phase := Cx.mul !phase c;
        Float.max worst
          (norm (Array.mapi (fun i x -> Cx.sub x (Cx.mul c vb.(i))) ga.amps)))
      a.groups 0.0
  in
  Float.max worst (Cx.norm (Cx.sub !phase Cx.one))

(* Floating-point error accumulated over 10^5 gates: measured outputs
   sit at most 2e-12 from their inputs. *)
let tolerance = 1e-8

(* How far [c]'s output state may honestly move when an optimizer drops
   [c]'s near-identity gates: the sum, over every gate whose matrix
   passes the 1e-9 identity test of [Optimize]'s window removal, of its
   Frobenius distance from the identity.  On QFT-48 this admits deleting
   the controlled phases of pi/2^d with d >= 31; deleting the rotations
   below 1e-8 rad that the optimizer keeps still fails.  Only one-qubit gates
   are looked at: every multi-qubit library gate is parameter-free and
   far from the identity, and an MCT's matrix can be huge. *)
let identity_slack c =
  let module M = Mathkit.Matrix in
  Circuit.fold
    (fun acc g ->
      if Gate.arity g > 1 then acc
      else
        let u = Gate.base_matrix g in
        if not (M.is_identity ~eps:1e-9 u) then acc
        else
          let d = M.sub u (M.identity (M.rows u)) and s = ref 0.0 in
          for r = 0 to M.rows d - 1 do
            for k = 0 to M.cols d - 1 do
              s := !s +. (Cx.norm (M.get d r k) ** 2.0)
            done
          done;
          acc +. sqrt !s)
    0.0 c

(* [b] equals [a] up to [tolerance] plus [slack]. *)
let equal ?(slack = 0.0) a b = distance a b < tolerance +. slack
