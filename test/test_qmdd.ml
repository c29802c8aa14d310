open Mathkit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_identity_structure () =
  let m = Qmdd.create ~n:4 in
  let id = Qmdd.identity m in
  (* Quasi-reduced identity: one node per variable plus the terminal. *)
  check_int "identity node count" 5 (Qmdd.node_count id);
  check_bool "identity is identity" true (Qmdd.is_identity m id);
  check_bool "matrix form" true (Matrix.is_identity (Qmdd.to_matrix m id))

let test_fig1_cnot_qmdd () =
  (* Paper Fig. 1: the CNOT with control x0, target x1.  U00 = I,
     U11 = X, off-diagonal quadrants 0. *)
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.gate m (Gate.Cnot { control = 0; target = 1 }) in
  check_bool "matches dense CNOT" true
    (Matrix.approx_equal (Qmdd.to_matrix m e)
       (Gate.embedded_matrix ~n:2 (Gate.Cnot { control = 0; target = 1 })));
  (* x0 node, two distinct x1 nodes (I and X patterns), terminal. *)
  check_int "node count" 4 (Qmdd.node_count e);
  let dot = Qmdd.to_dot m e in
  let contains_sub s sub =
    let n = String.length s and k = String.length sub in
    let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "dot mentions x0" true (contains_sub dot "x0");
  check_bool "ascii mentions terminal" true
    (contains_sub (Qmdd.to_ascii m e) "terminal")

let test_gate_qmdds_match_dense () =
  let gates =
    [
      Gate.H 1;
      Gate.T 2;
      Gate.Sdg 0;
      Gate.Cnot { control = 2; target = 0 };
      Gate.Cz (0, 2);
      Gate.Swap (1, 2);
      Gate.Toffoli { c1 = 1; c2 = 2; target = 0 };
      Gate.Mct { controls = [ 0; 2 ]; target = 1 };
    ]
  in
  List.iter
    (fun g ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.gate m g in
      check_bool
        (Printf.sprintf "%s QMDD = dense" (Gate.to_string g))
        true
        (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e)
           (Gate.embedded_matrix ~n:3 g)))
    gates

let test_multiply_matches_dense () =
  let m = Qmdd.create ~n:2 in
  let h = Qmdd.gate m (Gate.H 0) in
  let cnot = Qmdd.gate m (Gate.Cnot { control = 0; target = 1 }) in
  let product = Qmdd.multiply m cnot h in
  let dense =
    Matrix.mul
      (Gate.embedded_matrix ~n:2 (Gate.Cnot { control = 0; target = 1 }))
      (Gate.embedded_matrix ~n:2 (Gate.H 0))
  in
  check_bool "CNOT*H matches" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m product) dense)

let test_canonicity () =
  (* Z built two ways lands on the same node: S.S = Z. *)
  let m = Qmdd.create ~n:1 in
  let z = Qmdd.gate m (Gate.Z 0) in
  let s = Qmdd.gate m (Gate.S 0) in
  let ss = Qmdd.multiply m s s in
  check_bool "S*S = Z canonically" true (Qmdd.equal z ss);
  (* H.H = I *)
  let h = Qmdd.gate m (Gate.H 0) in
  check_bool "H*H = I" true (Qmdd.is_identity m (Qmdd.multiply m h h))

let test_add () =
  let m = Qmdd.create ~n:1 in
  let x = Qmdd.gate m (Gate.X 0) in
  let z = Qmdd.gate m (Gate.Z 0) in
  let sum = Qmdd.add m x z in
  let dense =
    Matrix.add (Gate.embedded_matrix ~n:1 (Gate.X 0))
      (Gate.embedded_matrix ~n:1 (Gate.Z 0))
  in
  check_bool "X+Z matches dense" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m sum) dense);
  let neg_x = Qmdd.multiply m (Qmdd.gate m (Gate.Z 0)) (Qmdd.multiply m x (Qmdd.gate m (Gate.Z 0))) in
  (* X + ZXZ = 0 *)
  let zero_sum = Qmdd.add m x neg_x in
  check_bool "X + ZXZ = 0" true (Qmdd.equal zero_sum (Qmdd.zero m))

let test_of_circuit_and_entry () =
  let c =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let m = Qmdd.create ~n:2 in
  let e = Qmdd.of_circuit m c in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  check_bool "entry (0,0)" true
    (Cx.approx_equal (Qmdd.entry m e ~row:0 ~col:0) expected);
  check_bool "entry (3,0)" true
    (Cx.approx_equal (Qmdd.entry m e ~row:3 ~col:0) expected);
  check_bool "entry (1,0)" true (Cx.is_zero (Qmdd.entry m e ~row:1 ~col:0));
  check_bool "matches dense unitary" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m e) (Sim.unitary c))

let test_equivalence_phase () =
  let z = Circuit.make ~n:1 [ Gate.Z 0 ] in
  let xzx = Circuit.make ~n:1 [ Gate.X 0; Gate.Z 0; Gate.X 0 ] in
  check_bool "Z ~ XZX up to phase" true (Qmdd.equivalent z xzx);
  check_bool "Z <> XZX exactly" false (Qmdd.equivalent ~up_to_phase:false z xzx);
  let ss = Circuit.make ~n:1 [ Gate.S 0; Gate.S 0 ] in
  check_bool "Z = SS exactly" true (Qmdd.equivalent ~up_to_phase:false z ss)

let test_inequivalence () =
  let a = Circuit.make ~n:2 [ Gate.Cnot { control = 0; target = 1 } ] in
  let b = Circuit.make ~n:2 [ Gate.Cnot { control = 1; target = 0 } ] in
  check_bool "distinct CNOTs differ" false (Qmdd.equivalent a b);
  let almost =
    Circuit.make ~n:2
      [ Gate.H 0; Gate.Cnot { control = 0; target = 1 }; Gate.T 1 ]
  in
  let original =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  check_bool "extra T detected" false (Qmdd.equivalent almost original)

let test_node_budget () =
  let c = Testutil.gen_circuit ~max_gates:20 4 |> fun g ->
    QCheck2.Gen.generate1 g
  in
  Alcotest.check_raises "budget exceeded" Qmdd.Node_budget_exceeded (fun () ->
      ignore (Qmdd.equivalent ~node_budget:2 c c))

let test_deadline () =
  let c =
    Circuit.make ~n:3
      [
        Gate.H 0;
        Gate.T 1;
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 2 };
      ]
  in
  (* An already-expired deadline aborts before any real work. *)
  let past = Int64.sub (Trace.now_ns ()) 1L in
  Alcotest.check_raises "expired deadline" Qmdd.Deadline_exceeded (fun () ->
      ignore (Qmdd.equivalent ~deadline_ns:past c c));
  (* A generous one never fires. *)
  let future = Int64.add (Trace.now_ns ()) 60_000_000_000L in
  check_bool "generous deadline passes" true
    (Qmdd.equivalent ~deadline_ns:future c c)

let test_swap_chain_identity () =
  (* SWAP expressed as 3 CNOTs is the SWAP gate: paper Fig. 3. *)
  let swap = Circuit.make ~n:2 [ Gate.Swap (0, 1) ] in
  let cnots =
    Circuit.make ~n:2
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 0 };
        Gate.Cnot { control = 0; target = 1 };
      ]
  in
  check_bool "Fig 3 identity" true (Qmdd.equivalent ~up_to_phase:false swap cnots)

let test_adjoint_and_trace () =
  let m = Qmdd.create ~n:2 in
  let c =
    Circuit.make ~n:2 [ Gate.H 0; Gate.T 1; Gate.Cnot { control = 0; target = 1 } ]
  in
  let e = Qmdd.of_circuit m c in
  let adj = Qmdd.adjoint m e in
  check_bool "adjoint matches dense" true
    (Matrix.approx_equal ~eps:1e-8 (Qmdd.to_matrix m adj)
       (Matrix.dagger (Sim.unitary c)));
  check_bool "U-dagger U = I" true
    (Qmdd.is_identity m (Qmdd.multiply m adj e));
  (* Trace of the identity is the dimension; trace of X is 0. *)
  check_bool "trace identity" true
    (Cx.approx_equal (Qmdd.trace m (Qmdd.identity m)) (Cx.of_float 4.0));
  check_bool "trace X" true
    (Cx.is_zero (Qmdd.trace m (Qmdd.gate m (Gate.X 0))))

let test_process_fidelity () =
  let bell =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  check_bool "self fidelity 1" true
    (abs_float (Qmdd.process_fidelity bell bell -. 1.0) < 1e-9);
  (* Global phase does not reduce fidelity. *)
  let phased =
    Circuit.make ~n:2
      ([ Gate.X 0; Gate.Z 0; Gate.X 0; Gate.Z 0 ] @ Circuit.gates bell)
  in
  check_bool "phase invariant" true
    (abs_float (Qmdd.process_fidelity bell phased -. 1.0) < 1e-9);
  (* A genuinely different circuit scores below 1. *)
  let other = Circuit.make ~n:2 [ Gate.H 0 ] in
  check_bool "different circuits score lower" true
    (Qmdd.process_fidelity bell other < 0.99)

let prop_trace_matches_dense =
  QCheck2.Test.make ~name:"QMDD trace = dense trace" ~count:30
    (Testutil.gen_circuit ~max_gates:10 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.of_circuit m c in
      let dense = Sim.unitary c in
      let dense_trace =
        List.fold_left
          (fun acc k -> Cx.add acc (Matrix.get dense k k))
          Cx.zero
          (List.init 8 (fun i -> i))
      in
      Cx.approx_equal ~eps:1e-7 (Qmdd.trace m e) dense_trace)

let bits_of_int ~n k = Array.init n (fun q -> (k lsr (n - 1 - q)) land 1 = 1)

let test_basis_simulation () =
  let m = Qmdd.create ~n:2 in
  let bell =
    Circuit.make ~n:2 [ Gate.H 0; Gate.Cnot { control = 0; target = 1 } ]
  in
  let from = bits_of_int ~n:2 0 in
  let state = Qmdd.run_basis m bell ~from in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  let amp k = Qmdd.amplitude m state ~from (bits_of_int ~n:2 k) in
  check_bool "amp |00>" true (Cx.approx_equal (amp 0) expected);
  check_bool "amp |11>" true (Cx.approx_equal (amp 3) expected);
  check_bool "amp |01>" true (Cx.is_zero (amp 1));
  check_bool "superposition detected" true
    (Qmdd.classical_outcome m state ~from = None)

let test_classical_outcome () =
  let m = Qmdd.create ~n:3 in
  let c =
    Circuit.make ~n:3
      [ Gate.X 0; Gate.Toffoli { c1 = 0; c2 = 1; target = 2 } ]
  in
  (* From |010>: X flips q0 -> |110>, Toffoli fires -> |111>. *)
  let from = bits_of_int ~n:3 0b010 in
  let state = Qmdd.run_basis m c ~from in
  check_bool "maps |010> to |111>" true
    (Qmdd.classical_outcome m state ~from = Some (bits_of_int ~n:3 0b111));
  (* From |000>: X -> |100>, Toffoli idle. *)
  let from0 = bits_of_int ~n:3 0 in
  let state0 = Qmdd.run_basis m c ~from:from0 in
  check_bool "maps |000> to |100>" true
    (Qmdd.classical_outcome m state0 ~from:from0 = Some (bits_of_int ~n:3 0b100))

let test_wide_functional_run () =
  (* Functional end-to-end check at full device width: compile a T6
     gate to the 96-qubit machine and run the mapped circuit on the
     all-controls-set basis state; the target (q25) must flip even
     though the dense simulator could never touch 2^96 amplitudes. *)
  let cascade = Circuit.make ~n:96 [ Gate.mct [ 1; 2; 3; 4; 5 ] 25 ] in
  let opts =
    {
      (Compiler.default_options ~device:Device.Ibm.big96) with
      Compiler.verification = Compiler.Skip;
    }
  in
  let r = Compiler.compile opts (Compiler.Quantum cascade) in
  let set_bits qs =
    Array.init 96 (fun q -> List.mem q qs)
  in
  let from = set_bits [ 1; 2; 3; 4; 5 ] in
  let m = Qmdd.create ~n:96 in
  let state = Qmdd.run_basis m r.Compiler.optimized ~from in
  check_bool "controls set: target flips" true
    (Qmdd.classical_outcome m state ~from = Some (set_bits [ 1; 2; 3; 4; 5; 25 ]));
  (* One control missing: nothing happens. *)
  let from' = set_bits [ 1; 2; 3; 4 ] in
  let state' = Qmdd.run_basis m r.Compiler.optimized ~from:from' in
  check_bool "control missing: identity" true
    (Qmdd.classical_outcome m state' ~from:from' = Some from')

let prop_basis_run_matches_dense =
  QCheck2.Test.make ~name:"run_basis matches dense simulation" ~count:25
    (Testutil.gen_circuit ~max_gates:10 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let from = bits_of_int ~n:3 5 in
      let state = Qmdd.run_basis m c ~from in
      let dense = Sim.run c (Sim.basis_state ~n:3 5) in
      List.for_all
        (fun k ->
          Cx.approx_equal ~eps:1e-7
            (Qmdd.amplitude m state ~from (bits_of_int ~n:3 k))
            dense.(k))
        (List.init 8 (fun i -> i)))

let test_reorder_flag () =
  (* Equivalence answers agree with and without first-use relabeling. *)
  let a =
    Circuit.make ~n:6
      [
        Gate.Cnot { control = 5; target = 0 };
        Gate.H 5;
        Gate.Toffoli { c1 = 5; c2 = 0; target = 3 };
      ]
  in
  let b = Circuit.concat a (Circuit.empty 6) in
  check_bool "reordered" true (Qmdd.equivalent ~reorder:true a b);
  check_bool "plain" true (Qmdd.equivalent ~reorder:false a b);
  let different = Circuit.append a (Gate.T 2) in
  check_bool "reordered inequivalence" false (Qmdd.equivalent ~reorder:true a different);
  check_bool "plain inequivalence" false (Qmdd.equivalent ~reorder:false a different)

let prop_reorder_agrees =
  QCheck2.Test.make ~name:"reorder does not change the verdict" ~count:30
    QCheck2.Gen.(
      pair (Testutil.gen_circuit ~max_gates:10 4) (Testutil.gen_circuit ~max_gates:10 4))
    (fun (a, b) ->
      Qmdd.equivalent ~reorder:true a b = Qmdd.equivalent ~reorder:false a b)

let prop_qmdd_matches_dense =
  QCheck2.Test.make ~name:"random circuit: QMDD = dense unitary" ~count:40
    (Testutil.gen_circuit ~max_gates:15 3)
    (fun c ->
      let m = Qmdd.create ~n:3 in
      let e = Qmdd.of_circuit m c in
      Matrix.approx_equal ~eps:1e-7 (Qmdd.to_matrix m e) (Sim.unitary c))

let prop_equivalent_reflexive_shuffled =
  (* A circuit is equivalent to itself with commuting prefix moved: here
     simply itself (canonical reflexivity through the alternating
     scheme). *)
  QCheck2.Test.make ~name:"equivalent c c" ~count:40
    (Testutil.gen_circuit ~max_gates:15 4)
    (fun c -> Qmdd.equivalent ~up_to_phase:false c c)

let prop_inverse_equivalence =
  QCheck2.Test.make ~name:"c . inverse c ~ empty" ~count:40
    (Testutil.gen_circuit ~max_gates:12 3)
    (fun c ->
      Qmdd.equivalent ~up_to_phase:false
        (Circuit.concat c (Circuit.inverse c))
        (Circuit.empty 3))

let prop_gate_qmdd_node_linear =
  (* Gate diagrams stay linear in n even on wide registers. *)
  QCheck2.Test.make ~name:"gate QMDD linear size" ~count:30
    (Testutil.gen_gate 16)
    (fun g ->
      let m = Qmdd.create ~n:16 in
      (* Controlled gates need at most ~3 nodes per level, SWAPs (three
         multiplied CNOTs) up to ~6. *)
      Qmdd.node_count (Qmdd.gate m g) <= 6 * 16 + 10)

let test_canonical_weight_stability () =
  (* Two interleaved weight streams whose values land a near-boundary
     hair apart must canonicalize stably: the value table keeps every
     established representative (per-bucket chains — a miss appends, it
     never evicts), so replaying either stream maps onto the original
     representative and the unique-node count stays flat instead of
     growing with every stream switch. *)
  let m = Qmdd.create ~n:1 in
  let theta = 0.7 in
  let ga = Gate.Phase (theta, 0) in
  (* Within one bucket of [ga]'s weight: must share its node. *)
  let gb = Gate.Phase (theta +. 4e-10, 0) in
  (* Far enough (> 2e-9 in weight space) to deserve its own
     representative, close enough to keep exercising the same
     neighborhood scan. *)
  let gc = Gate.Phase (theta +. 2e-8, 0) in
  let ea = Qmdd.gate m ga in
  let eb = Qmdd.gate m gb in
  Alcotest.(check bool)
    "near-equal weights canonicalize to one node" true (Qmdd.equal ea eb);
  ignore (Qmdd.gate m gc);
  let baseline = (Qmdd.stats m).Qmdd.unique_nodes in
  for _ = 1 to 50 do
    ignore (Qmdd.gate m ga);
    ignore (Qmdd.gate m gc);
    ignore (Qmdd.gate m gb)
  done;
  let after = (Qmdd.stats m).Qmdd.unique_nodes in
  Alcotest.(check int) "unique-node count stays flat" baseline after;
  (* And replaying stream A still yields the original edge, physically. *)
  Alcotest.(check bool) "representative stable" true
    (Qmdd.equal ea (Qmdd.gate m ga))

let test_identity_skip () =
  (* A product with the identity is the other operand itself, on either
     side: the kernel takes it without recursing or allocating. *)
  let m = Qmdd.create ~n:3 in
  let e =
    Qmdd.of_circuit m
      (Circuit.make ~n:3
         [ Gate.H 0; Gate.T 1; Gate.Cnot { control = 0; target = 2 } ])
  in
  let id = Qmdd.identity m in
  let before = Qmdd.allocated_nodes m in
  check_bool "I * e == e" true (Qmdd.multiply m id e == e);
  check_bool "e * I == e" true (Qmdd.multiply m e id == e);
  check_bool "I * I == I" true (Qmdd.multiply m id id == id);
  check_int "no nodes allocated" before (Qmdd.allocated_nodes m)

let test_gate_cache () =
  (* [gate] is memoized per manager: a repeated gate is the same diagram
     and costs no new nodes. *)
  let m = Qmdd.create ~n:8 in
  List.iter
    (fun g ->
      let first = Qmdd.gate m g in
      let before = Qmdd.allocated_nodes m in
      let again = Qmdd.gate m g in
      check_bool (Gate.to_string g ^ " equal") true (Qmdd.equal first again);
      check_bool (Gate.to_string g ^ " cached") true (first == again);
      check_int (Gate.to_string g ^ " allocates nothing") before
        (Qmdd.allocated_nodes m))
    [
      Gate.Toffoli { c1 = 1; c2 = 6; target = 3 };
      Gate.Swap (2, 7);
      Gate.Rz (0.3, 5);
      Gate.Mct { controls = [ 0; 4; 7 ]; target = 2 };
    ];
  (* Invalid gates are rejected every time, never cached. *)
  for _ = 1 to 2 do
    match Qmdd.gate m (Gate.Rz (Float.nan, 0)) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "NaN angle accepted"
  done

let test_wide_miter_counts_pinned () =
  (* A fixed 96-qubit Clifford+T miter: CNOT chains against the same
     chains written as H-CZ-H.  The node counts depend only on how
     canonical forms are chosen (tolerance buckets, representative
     chains, leftmost-nonzero normalization), so they pin that choice
     against kernel changes that should be pure speed-ups. *)
  let n = 96 in
  let a = ref [] and b = ref [] in
  for layer = 1 to 3 do
    for q = 0 to n - 2 do
      let g = if (q + layer) mod 3 = 0 then Gate.Tdg q else Gate.T q in
      a := Gate.Cnot { control = q; target = q + 1 } :: g :: Gate.H q :: !a;
      b :=
        Gate.H (q + 1) :: Gate.Cz (q, q + 1) :: Gate.H (q + 1) :: g :: Gate.H q
        :: !b
    done
  done;
  let stats = ref None in
  check_bool "equivalent" true
    (Qmdd.equivalent
       ~stats:(fun s -> stats := Some s)
       (Circuit.make ~n (List.rev !a))
       (Circuit.make ~n (List.rev !b)));
  match !stats with
  | None -> Alcotest.fail "no stats reported"
  | Some s ->
    check_int "allocated" 27838 s.Qmdd.allocated;
    check_int "peak unique nodes" 27837 s.Qmdd.peak_unique_nodes

let test_wide_amplitude () =
  (* Amplitudes on registers wider than an OCaml int: X 0; H 95 from
     |0...0> is (|10...0> + |10...01>) / sqrt 2. *)
  let n = 96 in
  let m = Qmdd.create ~n in
  let from = Array.make n false in
  let state =
    Qmdd.run_basis m (Circuit.make ~n [ Gate.X 0; Gate.H 95 ]) ~from
  in
  let set qs = Array.init n (fun q -> List.mem q qs) in
  let amp qs = Qmdd.amplitude m state ~from (set qs) in
  let expected = Cx.of_float Cx.inv_sqrt2 in
  check_bool "<10...01|" true (Cx.approx_equal (amp [ 0; 95 ]) expected);
  check_bool "<10...00|" true (Cx.approx_equal (amp [ 0 ]) expected);
  check_bool "<00...01|" true (Cx.is_zero (amp [ 95 ]));
  check_bool "<0...0|" true (Cx.is_zero (amp []))

let test_wide_process_fidelity () =
  (* 2^n overflows an OCaml int from n = 63: identical circuits must
     still score 1. *)
  List.iter
    (fun n ->
      let c =
        Circuit.make ~n
          [
            Gate.H 0;
            Gate.Cnot { control = 0; target = n - 1 };
            Gate.T (n - 1);
            Gate.Swap (1, n - 2);
          ]
      in
      let f = Qmdd.process_fidelity c c in
      check_bool (Printf.sprintf "n = %d self fidelity %g" n f) true
        (abs_float (f -. 1.0) < 1e-9))
    [ 64; 96 ]

let () =
  Alcotest.run "qmdd"
    [
      ( "construction",
        [
          Alcotest.test_case "identity" `Quick test_identity_structure;
          Alcotest.test_case "fig1 cnot" `Quick test_fig1_cnot_qmdd;
          Alcotest.test_case "gates vs dense" `Quick test_gate_qmdds_match_dense;
          Alcotest.test_case "multiply" `Quick test_multiply_matches_dense;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "canonical weight stability" `Quick
            test_canonical_weight_stability;
          Alcotest.test_case "of_circuit/entry" `Quick test_of_circuit_and_entry;
          Alcotest.test_case "identity skip" `Quick test_identity_skip;
          Alcotest.test_case "gate cache" `Quick test_gate_cache;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "phase handling" `Quick test_equivalence_phase;
          Alcotest.test_case "inequivalence" `Quick test_inequivalence;
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "fig3 swap identity" `Quick test_swap_chain_identity;
          Alcotest.test_case "reorder flag" `Quick test_reorder_flag;
          Alcotest.test_case "96-qubit miter node counts" `Quick
            test_wide_miter_counts_pinned;
          QCheck_alcotest.to_alcotest prop_reorder_agrees;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "adjoint/trace" `Quick test_adjoint_and_trace;
          Alcotest.test_case "process fidelity" `Quick test_process_fidelity;
          Alcotest.test_case "process fidelity on 64 and 96 qubits" `Quick
            test_wide_process_fidelity;
          QCheck_alcotest.to_alcotest prop_trace_matches_dense;
        ] );
      ( "basis simulation",
        [
          Alcotest.test_case "amplitudes" `Quick test_basis_simulation;
          Alcotest.test_case "classical outcome" `Quick test_classical_outcome;
          Alcotest.test_case "96-qubit functional check" `Quick
            test_wide_functional_run;
          Alcotest.test_case "96-qubit amplitudes" `Quick test_wide_amplitude;
          QCheck_alcotest.to_alcotest prop_basis_run_matches_dense;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_qmdd_matches_dense;
          QCheck_alcotest.to_alcotest prop_equivalent_reflexive_shuffled;
          QCheck_alcotest.to_alcotest prop_inverse_equivalence;
          QCheck_alcotest.to_alcotest prop_gate_qmdd_node_linear;
        ] );
    ]
