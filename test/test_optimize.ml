let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let circ gates = Circuit.make ~n:4 gates

let test_adjacent_cancellation () =
  let c = circ [ Gate.H 0; Gate.H 0; Gate.X 1; Gate.X 1; Gate.T 2; Gate.Tdg 2 ] in
  check_int "all cancelled" 0 (Circuit.gate_count (Optimize.cancel_pass c))

let test_cancellation_through_commuting () =
  (* The T on q0 commutes through the CNOT control, so T...Tdg cancels
     even with the CNOT in between. *)
  let c =
    circ [ Gate.T 0; Gate.Cnot { control = 0; target = 1 }; Gate.Tdg 0 ]
  in
  let optimized = Optimize.cancel_pass c in
  check_int "only CNOT left" 1 (Circuit.gate_count optimized);
  check_bool "equivalent" true (Sim.equivalent ~up_to_phase:false c optimized)

let test_no_unsound_cancellation () =
  (* H on the CNOT's control does not commute: H...H must NOT cancel. *)
  let c =
    circ [ Gate.H 0; Gate.Cnot { control = 0; target = 1 }; Gate.H 0 ]
  in
  check_int "nothing cancelled" 3 (Circuit.gate_count (Optimize.cancel_pass c))

let test_fusion_rules () =
  let cases =
    [
      ([ Gate.T 0; Gate.T 0 ], [ Gate.S 0 ]);
      ([ Gate.S 0; Gate.S 0 ], [ Gate.Z 0 ]);
      ([ Gate.Tdg 0; Gate.Tdg 0 ], [ Gate.Sdg 0 ]);
      ([ Gate.S 0; Gate.Z 0 ], [ Gate.Sdg 0 ]);
      ([ Gate.Z 0; Gate.Sdg 0 ], [ Gate.S 0 ]);
      ([ Gate.T 0; Gate.Sdg 0 ], [ Gate.Tdg 0 ]);
      ([ Gate.Tdg 0; Gate.S 0 ], [ Gate.T 0 ]);
    ]
  in
  List.iter
    (fun (input, expected) ->
      let out = Optimize.cancel_pass (circ input) in
      check_bool
        (Printf.sprintf "%s fuses"
           (String.concat ";" (List.map Gate.to_string input)))
        true
        (Circuit.gates out = expected);
      check_bool "fusion exact" true
        (Sim.equivalent ~up_to_phase:false (circ input) out))
    cases

let test_toffoli_cancellation () =
  let c =
    circ
      [
        Gate.Toffoli { c1 = 0; c2 = 1; target = 2 };
        Gate.Toffoli { c1 = 1; c2 = 0; target = 2 };
      ]
  in
  check_int "commuted-roles Toffoli pair cancels" 0
    (Circuit.gate_count (Optimize.cancel_pass c))

let test_fig6_collapse () =
  let fig6 =
    circ
      [
        Gate.H 0;
        Gate.H 1;
        Gate.Cnot { control = 1; target = 0 };
        Gate.H 0;
        Gate.H 1;
      ]
  in
  let out = Optimize.rewrite_pass fig6 in
  check_bool "collapsed to one CNOT" true
    (Circuit.gates out = [ Gate.Cnot { control = 0; target = 1 } ]);
  check_bool "exact" true (Sim.equivalent ~up_to_phase:false fig6 out)

let test_fig6_respects_device () =
  (* On ibmqx4, 0 -> 1 is NOT allowed (only 1 -> 0 and 2 -> 0/1 are), so
     the pattern around CNOT(1,0) must not collapse into CNOT(0,1). *)
  let fig6 =
    Circuit.make ~n:5
      [
        Gate.H 0;
        Gate.H 1;
        Gate.Cnot { control = 1; target = 0 };
        Gate.H 0;
        Gate.H 1;
      ]
  in
  let out = Optimize.rewrite_pass ~device:Device.Ibm.ibmqx4 fig6 in
  check_int "kept 5 gates" 5 (Circuit.gate_count out);
  let out' = Optimize.rewrite_pass ~device:Device.Ibm.ibmqx2 fig6 in
  check_int "collapsed on ibmqx2 (0->1 allowed)" 1 (Circuit.gate_count out')

let test_h_conjugation () =
  let hxh = circ [ Gate.H 2; Gate.X 2; Gate.H 2 ] in
  check_bool "HXH = Z" true
    (Circuit.gates (Optimize.rewrite_pass hxh) = [ Gate.Z 2 ]);
  let hzh = circ [ Gate.H 2; Gate.Z 2; Gate.H 2 ] in
  check_bool "HZH = X" true
    (Circuit.gates (Optimize.rewrite_pass hzh) = [ Gate.X 2 ])

let test_identity_window () =
  (* CNOT(0,1) CNOT(1,0) CNOT(0,1) CNOT(1,0) CNOT(0,1) CNOT(1,0) is the
     identity (two SWAPs): a 6-gate window no pairwise rule catches. *)
  let cnot a b = Gate.Cnot { control = a; target = b } in
  let c =
    circ [ cnot 0 1; cnot 1 0; cnot 0 1; cnot 1 0; cnot 0 1; cnot 1 0 ]
  in
  check_int "window removed" 0
    (Circuit.gate_count (Optimize.remove_identity_windows c))

(* A near-zero rotation alone on its wire is exempt from the lone-touch
   rejection: the window is simulated, and Rz(1e-13) is the identity
   within tolerance. *)
let test_identity_window_lone_rotation () =
  let c =
    circ
      [
        Gate.Rz (1e-13, 0);
        Gate.Cnot { control = 1; target = 2 };
        Gate.Cnot { control = 1; target = 2 };
      ]
  in
  check_bool "whole window removed" true
    (Circuit.gates (Optimize.remove_identity_windows c) = [])

(* A parameter-free gate alone on its wire rules the 3-gate window out;
   the CNOT pair behind it still goes. *)
let test_identity_window_lone_gate () =
  let c =
    circ
      [
        Gate.T 0;
        Gate.Cnot { control = 1; target = 2 };
        Gate.Cnot { control = 1; target = 2 };
      ]
  in
  check_bool "T kept" true
    (Circuit.gates (Optimize.remove_identity_windows c) = [ Gate.T 0 ])

(* One pass is one sweep: deleting the inner pair makes the outer pair
   adjacent, but the scan has already moved past it — the next fixpoint
   iteration removes it. *)
let test_identity_window_single_sweep () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  let c = circ [ cnot 0 1; cnot 2 3; cnot 2 3; cnot 0 1 ] in
  check_bool "outer pair left" true
    (Circuit.gates (Optimize.remove_identity_windows c) = [ cnot 0 1; cnot 0 1 ])

(* Verdicts are shared through the memo, so two windows of the same
   shape must not share a key unless they are the same gates: the CNOT
   window is the identity (X on the target commutes through), the CZ
   one is not.  Whichever runs first warms the memo for the other. *)
let test_identity_window_memo_keys () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  let not_identity = circ [ Gate.Cz (0, 1); Gate.X 1; cnot 0 1; Gate.X 1 ] in
  let identity = circ [ cnot 0 1; Gate.X 1; cnot 0 1; Gate.X 1 ] in
  check_bool "CZ window kept" true
    (Circuit.equal (Optimize.remove_identity_windows not_identity) not_identity);
  check_bool "CNOT window removed" true
    (Circuit.gates (Optimize.remove_identity_windows identity) = [])

let test_optimize_fixed_point () =
  (* A cascade needing multiple passes: inner pair cancels, exposing the
     outer pair. *)
  let c =
    circ
      [
        Gate.H 0;
        Gate.Cnot { control = 0; target = 1 };
        Gate.X 2;
        Gate.X 2;
        Gate.Cnot { control = 0; target = 1 };
        Gate.H 0;
      ]
  in
  check_int "everything collapses" 0 (Circuit.gate_count (Optimize.optimize c))

let test_optimize_keeps_meaning () =
  let c =
    circ
      [
        Gate.H 0;
        Gate.T 0;
        Gate.T 0;
        Gate.Cnot { control = 0; target = 3 };
        Gate.Sdg 0;
        Gate.H 0;
      ]
  in
  let out = Optimize.optimize c in
  check_bool "cheaper" true (Cost.evaluate Cost.eqn2 out < Cost.evaluate Cost.eqn2 c);
  check_bool "same unitary" true (Sim.equivalent ~up_to_phase:false c out)

let test_commutes_rules () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  check_bool "disjoint" true (Optimize.commutes (Gate.H 0) (Gate.X 3));
  check_bool "diag pair" true (Optimize.commutes (Gate.T 0) (Gate.Cz (0, 1)));
  check_bool "T on control" true (Optimize.commutes (Gate.T 0) (cnot 0 1));
  check_bool "T on target" false (Optimize.commutes (Gate.T 1) (cnot 0 1));
  check_bool "X on target" true (Optimize.commutes (Gate.X 1) (cnot 0 1));
  check_bool "X on control" false (Optimize.commutes (Gate.X 0) (cnot 0 1));
  check_bool "shared control" true (Optimize.commutes (cnot 0 1) (cnot 0 2));
  check_bool "shared target" true (Optimize.commutes (cnot 0 2) (cnot 1 2));
  check_bool "control-target clash" false (Optimize.commutes (cnot 0 1) (cnot 1 2));
  check_bool "H on shared qubit" false (Optimize.commutes (Gate.H 0) (cnot 0 1))

(* Gaps the old commutation table missed: X/Rx (and Y/Ry) on a shared
   wire are both functions of the same Pauli, and an Rx on a CNOT
   target commutes just like X does.  Each pin here failed before the
   table was extended. *)
let test_commutes_rotation_fixes () =
  let cnot a b = Gate.Cnot { control = a; target = b } in
  check_bool "Rx through target" true (Optimize.commutes (Gate.Rx (0.4, 1)) (cnot 0 1));
  check_bool "Rx on control" false (Optimize.commutes (Gate.Rx (0.4, 0)) (cnot 0 1));
  check_bool "X with Rx shared wire" true (Optimize.commutes (Gate.X 0) (Gate.Rx (0.4, 0)));
  check_bool "Y with Ry shared wire" true (Optimize.commutes (Gate.Y 2) (Gate.Ry (0.4, 2)));
  check_bool "X with Ry shared wire" false (Optimize.commutes (Gate.X 0) (Gate.Ry (0.4, 0)));
  check_bool "Y with Rx shared wire" false (Optimize.commutes (Gate.Y 0) (Gate.Rx (0.4, 0)));
  (* The cancellations the new rules unlock. *)
  let through_target = circ [ Gate.Rx (0.4, 1); cnot 0 1; Gate.Rx (-0.4, 1) ] in
  let out = Optimize.cancel_pass through_target in
  check_int "Rx pair cancels through CNOT target" 1 (Circuit.gate_count out);
  check_bool "Rx cancellation exact" true
    (Sim.equivalent ~up_to_phase:false through_target out);
  let through_y = circ [ Gate.Ry (0.3, 0); Gate.Y 0; Gate.Ry (-0.3, 0) ] in
  let out = Optimize.cancel_pass through_y in
  check_int "Ry pair cancels through Y" 1 (Circuit.gate_count out);
  check_bool "Ry cancellation exact" true
    (Sim.equivalent ~up_to_phase:false through_y out);
  (* Rx on the control must NOT slide: H-basis check that the unsound
     direction stays blocked. *)
  let on_control = circ [ Gate.Rx (0.4, 0); cnot 0 1; Gate.Rx (-0.4, 0) ] in
  check_int "Rx on control stays" 3
    (Circuit.gate_count (Optimize.cancel_pass on_control))

let test_phase_chain_collapses () =
  (* T.T.T.T = Z through repeated pairwise fusion (T.T = S, S.S = Z);
     needs the fixed-point loop, not a single pass. *)
  let c = circ [ Gate.T 0; Gate.T 0; Gate.T 0; Gate.T 0 ] in
  check_bool "TTTT = Z" true (Circuit.gates (Optimize.optimize c) = [ Gate.Z 0 ]);
  (* Eight T gates cancel entirely. *)
  let c8 = circ (List.init 8 (fun _ -> Gate.T 0)) in
  check_int "T^8 = I" 0 (Circuit.gate_count (Optimize.optimize c8))

let test_lookback_bound () =
  (* Two H gates on q0 separated by more commuting gates than the
     lookback window: the bounded pass must not merge them, the default
     one does. *)
  let spacers = List.init 6 (fun i -> Gate.T ((i mod 3) + 1)) in
  let c = circ ((Gate.H 0 :: spacers) @ [ Gate.H 0 ]) in
  (* Wide window: the H pair cancels and each T pair fuses to an S,
     leaving 3 gates.  Narrow window: nothing is close enough. *)
  check_int "wide window merges" 3
    (Circuit.gate_count (Optimize.cancel_pass ~lookback:50 c));
  check_int "narrow window keeps all" 8
    (Circuit.gate_count (Optimize.cancel_pass ~lookback:2 c))

let prop_device_optimize_stays_legal =
  (* Optimizing a mapped circuit must never introduce an illegal CNOT:
     the guarantee that lets the compiler optimize after routing. *)
  QCheck2.Test.make ~name:"device-aware optimization preserves legality"
    ~count:25
    (Testutil.gen_native_circuit ~max_gates:8 5)
    (fun c ->
      let d = Device.Ibm.ibmqx4 in
      let routed = Route.route_circuit d c in
      Route.legal_on d (Optimize.optimize ~device:d routed))

let prop_commutes_sound =
  (* Whenever [commutes] says yes, the matrices really commute. *)
  QCheck2.Test.make ~name:"commutes is sound" ~count:300
    QCheck2.Gen.(pair (Testutil.gen_gate 4) (Testutil.gen_gate 4))
    (fun (g, h) ->
      (not (Optimize.commutes g h))
      ||
      let a = Gate.embedded_matrix ~n:4 g and b = Gate.embedded_matrix ~n:4 h in
      Mathkit.Matrix.approx_equal ~eps:1e-9 (Mathkit.Matrix.mul a b)
        (Mathkit.Matrix.mul b a))

let prop_merge_sound =
  (* Whenever merge_gates fires, the replacement has the same matrix. *)
  QCheck2.Test.make ~name:"merge_gates is sound" ~count:300
    QCheck2.Gen.(pair (Testutil.gen_gate 4) (Testutil.gen_gate 4))
    (fun (g, h) ->
      match Optimize.merge_gates g h with
      | None -> true
      | Some replacement ->
        Sim.equivalent ~up_to_phase:false
          (Circuit.make ~n:4 [ g; h ])
          (Circuit.make ~n:4 replacement))

let prop_optimize_preserves_unitary =
  QCheck2.Test.make ~name:"optimize preserves unitary exactly" ~count:40
    (Testutil.gen_circuit ~max_gates:20 4)
    (fun c -> Sim.equivalent ~up_to_phase:false c (Optimize.optimize c))

let prop_optimize_never_worse =
  QCheck2.Test.make ~name:"optimize never increases cost" ~count:60
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c ->
      Cost.evaluate Cost.eqn2 (Optimize.optimize c) <= Cost.evaluate Cost.eqn2 c)

let prop_cancel_pass_preserves =
  QCheck2.Test.make ~name:"cancel pass preserves unitary" ~count:60
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c -> Sim.equivalent ~up_to_phase:false c (Optimize.cancel_pass c))

let prop_rewrite_pass_preserves =
  QCheck2.Test.make ~name:"rewrite pass preserves unitary" ~count:60
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c -> Sim.equivalent ~up_to_phase:false c (Optimize.rewrite_pass c))

let prop_identity_windows_preserve =
  QCheck2.Test.make ~name:"identity-window removal preserves unitary" ~count:40
    (Testutil.gen_circuit ~max_gates:25 4)
    (fun c ->
      Sim.equivalent ~up_to_phase:false c (Optimize.remove_identity_windows c))

(* The promise of [remove_identity_windows]: the memo and the
   pre-filters change nothing.  The reference tries every window of 6
   down to 2 gates at each position and deletes the first one that
   spans at most 3 qubits and whose dense unitary is the identity. *)
let naive_remove_identity_windows c =
  let is_identity window =
    let support =
      List.sort_uniq Int.compare (List.concat_map Gate.support window)
    in
    List.length support <= 3
    &&
    let index q =
      let rec find i = function
        | [] -> assert false
        | x :: rest -> if x = q then i else find (i + 1) rest
      in
      find 0 support
    in
    let compact =
      Circuit.make ~n:(List.length support) (List.map (Gate.rename index) window)
    in
    Mathkit.Matrix.is_identity ~eps:1e-9 (Sim.unitary compact)
  in
  let rec take k gates =
    if k = 0 then Some []
    else
      match gates with
      | [] -> None
      | g :: rest -> Option.map (List.cons g) (take (k - 1) rest)
  in
  let rec go gates =
    match gates with
    | [] -> []
    | g :: rest ->
      let rec try_window w =
        if w < 2 then None
        else
          match take w gates with
          | Some window when is_identity window -> Some w
          | Some _ | None -> try_window (w - 1)
      in
      (match try_window 6 with
      | Some w -> go (List.filteri (fun i _ -> i >= w) gates)
      | None -> g :: go rest)
  in
  Circuit.make ~n:(Circuit.n_qubits c) (go (Circuit.gates c))

(* 6-qubit circuits built to reach every branch of the window scan:
   Mct gates (0-3 controls, so some fit in 3 qubits), rotations at
   angles near the 1e-9 tolerance, and random <= 3-qubit segments
   followed by their inverse, so that identity windows really occur. *)
let gen_window_circuit =
  let open QCheck2.Gen in
  let n = 6 in
  let tiny_rotation =
    map3
      (fun ctor theta q -> ctor theta q)
      (oneofl
         [
           (fun t q -> Gate.Rx (t, q));
           (fun t q -> Gate.Ry (t, q));
           (fun t q -> Gate.Rz (t, q));
           (fun t q -> Gate.Phase (t, q));
         ])
      (map2 ( *. ) (oneofl [ 1e-13; 1e-10; 1e-8 ]) (oneofl [ 1.0; -1.0 ]))
  in
  let mct k wires =
    map
      (fun perm ->
        let controls = List.filteri (fun i _ -> i < k) perm in
        Gate.Mct { controls; target = List.nth perm k })
      (shuffle_l wires)
  in
  let segment =
    Testutil.gen_triple n >>= fun (a, b, c) ->
    let wires = [ a; b; c ] in
    let on_wires = Gate.rename (fun q -> List.nth wires q) in
    let gate =
      frequency
        [
          (4, map on_wires (Testutil.gen_gate 3));
          (1, tiny_rotation (oneofl wires));
          (1, int_bound 2 >>= fun k -> mct k wires);
        ]
    in
    int_range 1 3 >>= fun len ->
    list_repeat len gate
    |> map (fun gates ->
           gates @ Circuit.gates (Circuit.inverse (Circuit.make ~n gates)))
  in
  let chunk =
    frequency
      [
        (4, map (fun g -> [ g ]) (Testutil.gen_gate n));
        (1, map (fun g -> [ g ]) (tiny_rotation (Testutil.gen_qubit n)));
        ( 1,
          int_bound 3 >>= fun k ->
          map (fun g -> [ g ]) (mct k (List.init n Fun.id)) );
        (3, segment);
      ]
  in
  int_bound 12 >>= fun len ->
  list_repeat len chunk |> map (fun chunks -> Circuit.make ~n (List.concat chunks))

let prop_identity_windows_match_naive =
  QCheck2.Test.make ~name:"identity-window removal matches naive reference"
    ~count:200 ~print:Circuit.to_string gen_window_circuit (fun c ->
      Circuit.gates (Optimize.remove_identity_windows c)
      = Circuit.gates (naive_remove_identity_windows c))

let () =
  Alcotest.run "optimize"
    [
      ( "cancellation",
        [
          Alcotest.test_case "adjacent pairs" `Quick test_adjacent_cancellation;
          Alcotest.test_case "through commuting gates" `Quick
            test_cancellation_through_commuting;
          Alcotest.test_case "no unsound cancellation" `Quick
            test_no_unsound_cancellation;
          Alcotest.test_case "fusion rules" `Quick test_fusion_rules;
          Alcotest.test_case "toffoli pair" `Quick test_toffoli_cancellation;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "fig6 collapse" `Quick test_fig6_collapse;
          Alcotest.test_case "fig6 device guard" `Quick test_fig6_respects_device;
          Alcotest.test_case "H conjugation" `Quick test_h_conjugation;
          Alcotest.test_case "identity window" `Quick test_identity_window;
          Alcotest.test_case "identity window lone rotation" `Quick
            test_identity_window_lone_rotation;
          Alcotest.test_case "identity window lone gate" `Quick
            test_identity_window_lone_gate;
          Alcotest.test_case "identity window single sweep" `Quick
            test_identity_window_single_sweep;
          Alcotest.test_case "identity window memo keys" `Quick
            test_identity_window_memo_keys;
        ] );
      ( "fixed point",
        [
          Alcotest.test_case "cascade" `Quick test_optimize_fixed_point;
          Alcotest.test_case "meaning preserved" `Quick test_optimize_keeps_meaning;
          Alcotest.test_case "commutation rules" `Quick test_commutes_rules;
          Alcotest.test_case "rotation commutation fixes" `Quick
            test_commutes_rotation_fixes;
          Alcotest.test_case "phase chain" `Quick test_phase_chain_collapses;
          Alcotest.test_case "lookback bound" `Quick test_lookback_bound;
          QCheck_alcotest.to_alcotest prop_device_optimize_stays_legal;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_commutes_sound;
          QCheck_alcotest.to_alcotest prop_merge_sound;
          QCheck_alcotest.to_alcotest prop_optimize_preserves_unitary;
          QCheck_alcotest.to_alcotest prop_optimize_never_worse;
          QCheck_alcotest.to_alcotest prop_cancel_pass_preserves;
          QCheck_alcotest.to_alcotest prop_rewrite_pass_preserves;
          QCheck_alcotest.to_alcotest prop_identity_windows_preserve;
          QCheck_alcotest.to_alcotest prop_identity_windows_match_naive;
        ] );
    ]
