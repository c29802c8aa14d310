(* qbench -- the in-process worker of the repository benchmark.

   Usage: qbench.exe WORKLOAD MODE SEED

     WORKLOAD  paper-suite | wide-synth | wide-proof | serve-keys
     MODE      setup  build the inputs, print "ready", exit
               pass   one untraced compile pass, then the output checks
               trace  each job replayed stage by stage and compiled
                      untraced, back to back; the replay must equal the
                      compile, whose outputs are checked

   The worker prints "ready" once its inputs are built (perfbench/run.py
   times exec -> "ready" as set-up) and, as its last line, one JSON
   object with the raw measurements; run.py turns those into the
   benchmark's metrics.  SEED only picks the basis inputs of the output
   checks: the compiled inputs are fixed.

   A worker process runs one pass, its jobs in a fixed order.  An
   untraced pass runs on the main domain: the optimizer's domain-local
   identity-window memo starts cold with the pass and warms across its
   jobs exactly as in a batch compile, so times, allocation counts and
   outputs repeat from process to process.  (A fresh domain per job
   would start every job cold, but then each minor collection becomes a
   stop-the-world handshake with the joining domain: 12% slower, ~2000
   context switches a second, and noisier.)  The traced pass runs each
   job's replay and compile on fresh domains, so that the two start
   alike and their ratio is the tracing overhead alone.

   The traced replay calls each layer's public functions from here, in
   the order and with the arguments [Compiler.compile_checked] uses for
   the default options; nothing inside lib/ is instrumented.  A replay
   whose final circuit or verdict differs from the untraced compile is a
   failure, so the per-layer numbers always describe the real
   pipeline. *)

module J = Trace.Json

(* ---- workloads ------------------------------------------------------ *)

type source = File of string | Generated of Circuit.t

type job = {
  name : string;
  device : Device.t;
  verify : bool;
  source : source;
}

let paper_files () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f ->
             List.mem (Compiler.extension f) [ ".qc"; ".real"; ".pla" ])
      |> List.map (Filename.concat dir))
    [ "benchmarks/qc"; "benchmarks/revlib"; "benchmarks/pla" ]

let paper_jobs devices =
  List.concat_map
    (fun device ->
      List.map
        (fun path ->
          {
            name = Filename.basename path ^ "@" ^ Device.name device;
            device;
            verify = true;
            source = File path;
          })
        (paper_files ()))
    devices

let big96_job ~verify name c =
  { name; device = Device.Ibm.big96; verify; source = Generated c }

let wide_synth_jobs () =
  let open Benchsuite in
  List.map
    (fun b ->
      big96_job ~verify:false b.Big_cascades.name
        (Big_cascades.circuit b))
    Big_cascades.all
  @ [
      big96_job ~verify:false "qft-24" (Classics.qft 24);
      big96_job ~verify:false "qft-48" (Classics.qft 48);
      big96_job ~verify:false "cuccaro-46"
        (Classics.cuccaro_adder 46);
    ]

(* The first two Table 7 gates of T6_b: the shortest prefix in which
   consecutive gates share a qubit. *)
let wide_proof_jobs () =
  let open Benchsuite in
  let t6 = Big_cascades.circuit (Big_cascades.find "T6_b") in
  let first_two = List.filteri (fun i _ -> i < 2) (Circuit.gates t6) in
  [
    big96_job ~verify:true "T6_b[0..1]"
      (Circuit.make ~n:(Circuit.n_qubits t6) first_two);
  ]

let jobs_of = function
  | "paper-suite" -> paper_jobs [ Device.Ibm.ibmqx5 ]
  | "wide-synth" -> wide_synth_jobs ()
  | "wide-proof" -> wide_proof_jobs ()
  | "serve-keys" -> paper_jobs [ Device.Ibm.ibmqx5; Device.Ibm.ibmq_16 ]
  | w -> invalid_arg ("unknown workload " ^ w)

let options job =
  let o = Compiler.default_options ~device:job.device in
  if job.verify then o else { o with Compiler.verification = Compiler.Skip }

(* A job with its input parsed once at set-up, for the output checks. *)
type prepared = { job : job; logical : Circuit.t }

let prepare job =
  let input =
    match job.source with
    | Generated c -> Compiler.Quantum c
    | File path -> (
      match Compiler.parse_file_checked path with
      | Ok i -> i
      | Error d -> failwith (Diagnostic.to_string d))
  in
  let logical =
    match input with
    | Compiler.Quantum c -> c
    | Compiler.Classical pla -> Cascade.of_pla pla
  in
  { job; logical }

(* ---- measurement ---------------------------------------------------- *)

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let seconds_since t0 = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9

(* [timed f] is [f ()] with its wall seconds and allocated Mwords. *)
let timed f =
  let w0 = words () in
  let t0 = Trace.now_ns () in
  let r = f () in
  let s = seconds_since t0 in
  (r, s, (words () -. w0) /. 1e6)

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* ---- failures ------------------------------------------------------- *)

let failures = ref []

(* Job instances (one job in one pass) with at least one failure. *)
let failed_instances = ref 0

let fail job fmt =
  Printf.ksprintf (fun m -> failures := (job.name ^ ": " ^ m) :: !failures) fmt

(* [instance f] runs the checks of one job instance, counting it failed
   at most once however many of its checks fail. *)
let instance f =
  let before = List.length !failures in
  let r = f () in
  if List.length !failures > before then incr failed_instances;
  r

(* ---- the untraced compile ------------------------------------------ *)

type compiled = {
  result : (Compiler.report, Diagnostic.t list) result;
  seconds : float;
  mwords : float;
}

(* What [qsc compile] does for one input. *)
let compile_job p =
  let result, seconds, mwords =
    timed (fun () ->
        let input =
          match p.job.source with
          | File path ->
            Result.map_error (fun d -> [ d ]) (Compiler.parse_file_checked path)
          | Generated c -> Ok (Compiler.Quantum c)
        in
        Result.bind input (Compiler.compile_checked (options p.job)))
  in
  { result; seconds; mwords }

(* The report of a compile that counts as a success, or [None] after
   recording why it does not. *)
let judge p c =
  match c.result with
  | Error ds ->
    fail p.job "compile failed: %s"
      (String.concat "; " (List.map Diagnostic.to_string ds));
    None
  | Ok r ->
    let v = r.Compiler.verification in
    if r.Compiler.degraded <> [] then begin
      fail p.job "degraded stages: %s"
        (String.concat "; " (List.map snd r.Compiler.degraded));
      None
    end
    else if v = Compiler.Mismatch then begin
      fail p.job "verification mismatch";
      None
    end
    else if p.job.verify && not (Compiler.verified v) then begin
      fail p.job "not verified: %s" (Compiler.verification_to_string v);
      None
    end
    else Some r

(* ---- output checks -------------------------------------------------- *)

let basis_inputs = 2

(* Every output must be legal on its device and, on seeded basis inputs,
   prepare the state its input prepares, global phase included: the
   input's classical run when it has one, else its own simulation.  The
   states may differ by float error plus what dropping the input's
   near-identity gates accounts for ([Statecheck.identity_slack]). *)
let check_output ~seed ~index p (r : Compiler.report) =
  let device = p.job.device in
  let n = Device.n_qubits device in
  let out = r.Compiler.optimized in
  if not (Route.legal_on device out) then
    fail p.job "output is not legal on %s" (Device.name device);
  let input = Circuit.widen p.logical n in
  let slack = Statecheck.identity_slack input in
  let rng = Random.State.make [| seed; index |] in
  for _ = 1 to basis_inputs do
    let from = Array.init n (fun _ -> Random.State.bool rng) in
    match
      let expected =
        match Sim.classical_run input from with
        | Some bits -> Statecheck.basis bits
        | None -> Statecheck.run input ~from
      in
      Statecheck.equal ~slack expected (Statecheck.run out ~from)
    with
    | true -> ()
    | false -> fail p.job "output disagrees with the input on a basis state"
    | exception Statecheck.Too_entangled ->
      fail p.job "state too entangled for the output check"
  done

(* ---- the traced replay ---------------------------------------------- *)

(* Per-layer sums (and maxima for peaks) of one job or one pass. *)
type layers = (string, float) Hashtbl.t

let get (l : layers) k = Option.value ~default:0.0 (Hashtbl.find_opt l k)
let add (l : layers) k v = Hashtbl.replace l k (get l k +. v)
let peak (l : layers) k v = Hashtbl.replace l k (Float.max (get l k) v)

(* The replay below implements exactly these option values; anything
   else in [Compiler.default_options] means it no longer follows the
   compiler and must be updated before its numbers mean anything. *)
let replay_covers (o : Compiler.options) =
  (match o.Compiler.router with Compiler.Ctr -> true | _ -> false)
  && o.Compiler.post_optimize
  && (not o.Compiler.fold_states)
  && (not o.Compiler.use_placement)
  && (not o.Compiler.check_contracts)
  && o.Compiler.budgets = Compiler.no_budgets
  && Option.is_none o.Compiler.inject

type replayed = {
  final : Circuit.t;
  verdict : Compiler.verification_result;
  gate_level_input : Circuit.t;
  input_gates : int;
  routed_gates : int;
  job_layers : layers;
  replay_seconds : float;
}

let replay p =
  let o = options p.job in
  if not (replay_covers o) then
    failwith "Compiler.default_options changed: the traced replay is stale";
  let l : layers = Hashtbl.create 64 in
  let stage ?words key f =
    let r, s, w = timed f in
    add l key s;
    Option.iter (fun k -> add l k w) words;
    r
  in
  let device = o.Compiler.device and cost = o.Compiler.cost in
  let rules = o.Compiler.rewrite_rules in
  let n = Device.n_qubits device in
  let t0 = Trace.now_ns () in
  let optimize key ?device ~cost c =
    let out =
      stage (key ^ "_s") ~words:(key ^ "_mwords") (fun () ->
          Optimize.optimize_budgeted ?device ~cost ~rules c)
    in
    if out.Optimize.hit_iteration_cap || out.Optimize.hit_deadline then
      failwith (key ^ " stopped early");
    add l "optimize.sweeps" (float_of_int out.Optimize.iterations);
    add l "optimize.gates_in" (float_of_int (Circuit.gate_count c));
    add l "optimize.gates_out"
      (float_of_int (Circuit.gate_count out.Optimize.circuit));
    out.Optimize.circuit
  in
  let input =
    match p.job.source with
    | Generated c -> Compiler.Quantum c
    | File path -> (
      let parse () = Compiler.parse_file_checked path in
      match stage "qformats.parse_s" parse with
      | Ok i -> i
      | Error d -> failwith (Diagnostic.to_string d))
  in
  let circuit =
    match input with
    | Compiler.Quantum c -> c
    | Compiler.Classical pla ->
      stage "esop.front_end_s" (fun () -> Cascade.of_pla pla)
  in
  if Lint.check ~rules:[ Lint.Rule.Non_finite_angle ] circuit <> [] then
    failwith "non-finite rotation angle in the input";
  let reference = Circuit.widen circuit n in
  let staged =
    if o.Compiler.pre_optimize then
      optimize "optimize.pre" ~cost:Cost.eqn2 reference
    else reference
  in
  let native = stage "decompose.s" (fun () -> Decompose.to_native staged) in
  add l "decompose.gates_out" (float_of_int (Circuit.gate_count native));
  let stats = Route.new_stats () in
  let routed =
    stage "route.s" (fun () -> Route.route_circuit_swaps ~stats device native)
  in
  add l "route.swaps_inserted" (float_of_int stats.Route.swaps_inserted);
  add l "route.swap_hops" (float_of_int stats.Route.swap_hops);
  let unoptimized =
    stage "route.expand_s" (fun () -> Route.expand_swaps device routed)
  in
  add l "route.gates_out" (float_of_int (Circuit.gate_count unoptimized));
  let swap_level = optimize "optimize.swap_level" ~device ~cost routed in
  let gate_level_input =
    stage "route.expand_s" (fun () -> Route.expand_swaps device swap_level)
  in
  let optimized =
    optimize "optimize.gate_level" ~device ~cost gate_level_input
  in
  let verdict =
    match o.Compiler.verification with
    | Compiler.Skip -> Compiler.Skipped
    | Compiler.Qmdd_check { node_budget } ->
      let equivalent prefix a b =
        Qmdd.equivalent ~up_to_phase:false ?node_budget
          ~stats:(fun s ->
            add l (prefix ^ "allocated_nodes") (float_of_int s.Qmdd.allocated);
            peak l (prefix ^ "peak_nodes")
              (float_of_int s.Qmdd.peak_unique_nodes);
            add l (prefix ^ "mul_hits") (float_of_int s.Qmdd.mul_cache_hits);
            add l (prefix ^ "mul_misses")
              (float_of_int s.Qmdd.mul_cache_misses);
            add l (prefix ^ "add_hits") (float_of_int s.Qmdd.add_cache_hits);
            add l (prefix ^ "add_misses")
              (float_of_int s.Qmdd.add_cache_misses))
          a b
      in
      let direct () =
        match
          stage "qmdd.direct_s" ~words:"qmdd.direct_mwords" (fun () ->
              equivalent "qmdd." reference optimized)
        with
        | true -> Compiler.Verified
        | false -> Compiler.Mismatch
        | exception Qmdd.Node_budget_exceeded -> Compiler.Budget_exceeded
      in
      let staged_proof () =
        let eq = equivalent "qmdd.staged." in
        let blocks =
          List.map
            (fun g ->
              ( g,
                Route.expand_swaps device
                  (Route.route_circuit_swaps device (Circuit.make ~n [ g ])) ))
            (Circuit.gates native)
        in
        let reassembled =
          Circuit.make ~n
            (List.concat_map (fun (_, b) -> Circuit.gates b) blocks)
        in
        if not (Circuit.equal reassembled unoptimized) then
          Compiler.Budget_exceeded
        else if
          not (stage "qmdd.staged.ref_native_s" (fun () -> eq reference native))
        then Compiler.Mismatch
        else if
          not
            (stage "qmdd.staged.blocks_s" (fun () ->
                 List.for_all
                   (fun (g, block) ->
                     match g with
                     | Gate.Cnot _ ->
                       add l "qmdd.staged.blocks" 1.0;
                       eq (Circuit.make ~n [ g ]) block
                     | _ -> true)
                   blocks))
        then Compiler.Mismatch
        else if stage "qmdd.staged.miter_s" (fun () -> eq unoptimized optimized)
        then Compiler.Verified_staged
        else Compiler.Mismatch
      in
      let staged () =
        let words = "qmdd.staged.mwords" in
        match stage "qmdd.staged_s" ~words staged_proof with
        | outcome -> outcome
        | exception Qmdd.Node_budget_exceeded -> Compiler.Budget_exceeded
      in
      if n > 32 then
        match staged () with
        | Compiler.Budget_exceeded -> direct ()
        | outcome -> outcome
      else (
        match direct () with
        | Compiler.Budget_exceeded -> staged ()
        | outcome -> outcome)
    | Compiler.Fallback _ ->
      failwith "the traced replay implements Qmdd_check verification only"
  in
  {
    final = optimized;
    verdict;
    gate_level_input;
    input_gates = Circuit.gate_count circuit;
    routed_gates = Circuit.gate_count unoptimized;
    job_layers = l;
    replay_seconds = seconds_since t0;
  }

(* One optimizer sweep, pass by pass, on a gate-level input: the passes
   and order of one [Optimize.optimize_budgeted] iteration. *)
let sweep_profile p c =
  let o = options p.job in
  let device = o.Compiler.device in
  let l : layers = Hashtbl.create 8 in
  let stage key f =
    let r, s, w = timed f in
    add l ("optimize.sweep." ^ key ^ "_s") s;
    add l ("optimize.sweep." ^ key ^ "_mwords") w;
    r
  in
  let c = stage "cancel" (fun () -> Optimize.cancel_pass c) in
  let c = stage "peephole" (fun () -> Optimize.rewrite_pass ~device c) in
  let c =
    stage "rewrite_tier" (fun () ->
        if Rewrite.selection_is_empty o.Compiler.rewrite_rules then c
        else
          (Rewrite.apply ~device ~selection:o.Compiler.rewrite_rules
             ~cost:o.Compiler.cost ~check:false c)
            .Rewrite.circuit)
  in
  ignore
    (stage "identity_windows" (fun () -> Optimize.remove_identity_windows c));
  l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer key a traced pass reports, so a layer that a
   workload does not exercise reads 0 instead of going missing. *)
let reported_keys =
  [
    "qformats.parse_s"; "esop.front_end_s"; "optimize.pre_s";
    "optimize.swap_level_s"; "optimize.gate_level_s";
    "optimize.gate_level_mwords"; "optimize.sweeps"; "decompose.s";
    "decompose.gates_out"; "route.s"; "route.expand_s";
    "route.swaps_inserted"; "route.swap_hops"; "route.gates_out";
    "qmdd.direct_s"; "qmdd.direct_mwords"; "qmdd.allocated_nodes";
    "qmdd.peak_nodes"; "qmdd.staged_s"; "qmdd.staged.ref_native_s";
    "qmdd.staged.blocks_s"; "qmdd.staged.blocks"; "qmdd.staged.miter_s";
    "qmdd.staged.mwords"; "qmdd.staged.allocated_nodes";
    "qmdd.staged.peak_nodes";
  ]

(* Derived per-layer metrics of one traced pass. *)
let finish_layers (l : layers) =
  List.iter (fun k -> add l k 0.0) reported_keys;
  let frac hits misses = ratio (get l hits) (get l hits +. get l misses) in
  add l "qmdd.mul_hit_frac" (frac "qmdd.mul_hits" "qmdd.mul_misses");
  add l "qmdd.add_hit_frac" (frac "qmdd.add_hits" "qmdd.add_misses");
  add l "optimize.removed_frac"
    (ratio
       (get l "optimize.gates_in" -. get l "optimize.gates_out")
       (get l "optimize.gates_in"));
  let layer_seconds =
    [
      ("front_end", [ "qformats.parse_s"; "esop.front_end_s" ]);
      ( "optimize",
        [
          "optimize.pre_s"; "optimize.swap_level_s"; "optimize.gate_level_s";
        ] );
      ("decompose", [ "decompose.s" ]);
      ("route", [ "route.s"; "route.expand_s" ]);
      ("qmdd", [ "qmdd.direct_s"; "qmdd.staged_s" ]);
    ]
  in
  let sum keys = List.fold_left (fun acc k -> acc +. get l k) 0.0 keys in
  let total = get l "replay_s" in
  List.iter
    (fun (layer, keys) -> add l ("share." ^ layer) (ratio (sum keys) total))
    layer_seconds

let merge_into (into : layers) (l : layers) =
  Hashtbl.iter
    (fun k v ->
      if String.ends_with ~suffix:"peak_nodes" k then peak into k v
      else add into k v)
    l

(* ---- output --------------------------------------------------------- *)

let layers_json (l : layers) =
  J.Obj
    (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) l []
    |> List.sort compare)

let failure_fields ~attempted =
  let failed = List.rev !failures in
  [
    ("attempted", J.Int attempted);
    ("failed", J.Int !failed_instances);
    ("failures", J.List (List.map (fun m -> J.String m) failed));
  ]

let print_result fields =
  print_endline (J.to_string (J.Obj fields));
  flush stdout

let outputs_json reports =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let optimized r = r.Compiler.optimized in
  [
    ("out_cost", J.Float (sum (fun r -> r.Compiler.optimized_cost)));
    ( "out_t_count",
      J.Float (sum (fun r -> float_of_int (Circuit.t_count (optimized r)))) );
    ( "out_gates",
      J.Float (sum (fun r -> float_of_int (Circuit.gate_count (optimized r))))
    );
    ( "verified",
      J.Int
        (List.length
           (List.filter (fun r -> Compiler.verified r.Compiler.verification)
              reports)) );
  ]

let alloc_mwords compiled =
  List.fold_left (fun acc c -> acc +. c.mwords) 0.0 compiled

(* Judge every compile of a pass and check its output. *)
let judge_pass ~seed prepared compiled =
  List.mapi
    (fun index (p, c) ->
      instance (fun () ->
          let r = judge p c in
          Option.iter (check_output ~seed ~index p) r;
          r))
    (List.combine prepared compiled)

(* Fingerprint of a pass's outputs, to require that every pass of a run
   compiled the same circuits. *)
let outputs_digest reports =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun r -> Circuit.to_string r.Compiler.optimized) reports)))

(* One untraced pass, every job once in order, then the output checks
   (outside the timing). *)
let pass_mode ~seed prepared =
  let t0 = Trace.now_ns () in
  let compiled = List.map compile_job prepared in
  let wall = seconds_since t0 in
  let judged, check_s, _ =
    timed (fun () -> judge_pass ~seed prepared compiled)
  in
  let reports = List.filter_map Fun.id judged in
  print_result
    ([
       ("mode", J.String "pass");
       ( "asked",
         J.Int (List.length (List.filter (fun p -> p.job.verify) prepared)) );
       ("wall_s", J.Float wall);
       ("alloc_mwords", J.Float (alloc_mwords compiled));
       ("job_s", J.List (List.map (fun c -> J.Float c.seconds) compiled));
       ("check_s", J.Float check_s);
       ("digest", J.String (outputs_digest reports));
     ]
    @ outputs_json reports
    @ failure_fields ~attempted:(List.length prepared))

let row p (r : replayed) (sweep : layers) =
  let l = Hashtbl.copy r.job_layers in
  merge_into l sweep;
  J.Obj
    [
      ("job", J.String p.job.name);
      ("input_gates", J.Int r.input_gates);
      ("routed_gates", J.Int r.routed_gates);
      ("output_gates", J.Int (Circuit.gate_count r.final));
      ("replay_s", J.Float r.replay_seconds);
      ("layers", layers_json l);
    ]

(* A replay that raises counts as a failed job, not a crashed run. *)
let replay_job p =
  match replay p with
  | r -> Some r
  | exception e ->
    fail p.job "traced replay raised %s" (Printexc.to_string e);
    None

(* [f ()] on a fresh domain, with its wall seconds. *)
let on_fresh_domain_timed f =
  let t0 = Trace.now_ns () in
  let r = on_fresh_domain f in
  (r, seconds_since t0)

(* Every job replayed and compiled untraced, back to back in this
   process and each on a fresh domain, so both start from a cold memo:
   the ratio of the two sums is the tracing overhead.  Whichever of the
   two runs second is 2-4% faster, so the order alternates from job to
   job.  The compiles' outputs are checked, and every replay must equal
   its compile. *)
let trace_mode ~seed prepared =
  let runs =
    List.mapi
      (fun i p ->
        let replay () = on_fresh_domain_timed (fun () -> replay_job p) in
        let compile () = on_fresh_domain_timed (fun () -> compile_job p) in
        let (replayed, replay_s), (compiled, compile_s) =
          if i mod 2 = 0 then
            let r = replay () in
            (r, compile ())
          else
            let c = compile () in
            (replay (), c)
        in
        (replayed, compiled, replay_s, compile_s))
      prepared
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let replay_s = sum (fun (_, _, s, _) -> s) in
  let compile_s = sum (fun (_, _, _, s) -> s) in
  let compiled = List.map (fun (_, c, _, _) -> c) runs in
  let reports = judge_pass ~seed prepared compiled in
  let l : layers = Hashtbl.create 64 in
  let rows =
    List.map2
      (fun (p, (replayed, _, _, _)) report ->
        match (replayed, report) with
        | Some r, Some rep ->
          instance (fun () ->
              if not (Circuit.equal r.final rep.Compiler.optimized) then
                fail p.job "traced replay output differs from the compiler's";
              if r.verdict <> rep.Compiler.verification then
                fail p.job "traced replay verdict %s, the compiler's %s"
                  (Compiler.verification_to_string r.verdict)
                  (Compiler.verification_to_string rep.Compiler.verification));
          (* On a fresh domain, so the sweep starts from a cold memo as
             the fixpoint's first sweep over this input would. *)
          let sweep =
            on_fresh_domain (fun () -> sweep_profile p r.gate_level_input)
          in
          merge_into l r.job_layers;
          merge_into l sweep;
          add l "replay_s" r.replay_seconds;
          Some (row p r sweep)
        | None, _ ->
          incr failed_instances;
          None
        | Some _, None -> None)
      (List.combine prepared runs)
      reports
  in
  finish_layers l;
  add l "trace.overhead_frac" ((replay_s /. compile_s) -. 1.0);
  let reports = List.filter_map Fun.id reports in
  print_result
    ([
       ("mode", J.String "trace");
       ("replay_s", J.Float replay_s);
       ("compile_s", J.Float compile_s);
       ("alloc_mwords", J.Float (alloc_mwords compiled));
       ("digest", J.String (outputs_digest reports));
       ("layers", layers_json l);
       ("rows", J.List (List.filter_map Fun.id rows));
     ]
    @ outputs_json reports
    @ failure_fields ~attempted:(2 * List.length prepared))

let () =
  match Sys.argv with
  | [| _; workload; mode; seed |] ->
    let seed = int_of_string seed in
    let prepared = List.map prepare (jobs_of workload) in
    print_endline "ready";
    flush stdout;
    (match mode with
    | "setup" -> ()
    | "pass" -> pass_mode ~seed prepared
    | "trace" -> trace_mode ~seed prepared
    | m -> invalid_arg ("unknown mode " ^ m))
  | _ ->
    prerr_endline "usage: qbench.exe WORKLOAD MODE SEED";
    exit 2
