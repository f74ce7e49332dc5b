let interp = Planp_runtime.Interp.backend
let jit = Specialize.backend
let bytecode = Bytecomp.backend
let all () = [ interp; jit; bytecode ]

let by_name name =
  List.find_opt
    (fun backend ->
      String.equal backend.Planp_runtime.Backend.backend_name name)
    (all ())

let codegen_time_ms backend checked ~globals ~repeats =
  if repeats <= 0 then invalid_arg "codegen_time_ms: repeats must be positive";
  (* One warm-up compilation keeps first-run allocation effects out. *)
  ignore (backend.Planp_runtime.Backend.compile checked ~globals);
  let started = Unix.gettimeofday () in
  for _ = 1 to repeats do
    ignore (backend.Planp_runtime.Backend.compile checked ~globals)
  done;
  (Unix.gettimeofday () -. started) *. 1000.0 /. float_of_int repeats
