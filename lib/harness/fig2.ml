(** Driver and printer for the paper's Fig. 2 (throughput vs threads,
    eight panels = 4 workloads × 2 machines).

    Machines are simulator profiles ({!Sim.Profile.niagara2} /
    {!Sim.Profile.x86}); each panel prints one series per structure in
    thousands of operations per second, the paper's axis unit. *)

type scale = {
  ops_per_thread : int;  (** paper: 2^16 *)
  mixed_init : int;  (** paper: 2^16 *)
  many_init : int;  (** paper: 2^20 *)
  threads_niagara : int list;
  threads_x86 : int list;
}

let paper_scale =
  {
    ops_per_thread = 1 lsl 16;
    mixed_init = 1 lsl 16;
    many_init = 1 lsl 20;
    threads_niagara = [ 1; 2; 4; 8; 16; 24; 32; 48; 64 ];
    threads_x86 = [ 1; 2; 4; 6; 8; 10; 12 ];
  }

(** Reduced scale for quick runs ([repro fig2 --quick], tests). The
    thread sweeps keep the inflection points (core count, hardware-thread
    count). *)
let quick_scale =
  {
    ops_per_thread = 1 lsl 10;
    mixed_init = 1 lsl 12;
    many_init = 1 lsl 14;
    threads_niagara = [ 1; 4; 8; 16; 32; 64 ];
    threads_x86 = [ 1; 2; 4; 6; 8; 12 ];
  }

let init_size_for scale (panel : Workload.panel) =
  match panel with
  | Insert | Extract -> 0
  | Mixed -> scale.mixed_init
  | Extract_many -> scale.many_init

let threads_for scale (profile : Sim.Profile.t) =
  if profile.name = "niagara2" then scale.threads_niagara
  else scale.threads_x86

(** Run one panel on one machine profile. *)
let run ?(scale = quick_scale) ?(makers = Pq.On_sim.paper_set) ~profile
    ~panel () =
  List.map
    (Sim_exp.run_series ~profile ~panel
       ~thread_counts:(threads_for scale profile)
       ~ops_per_thread:scale.ops_per_thread
       ~init_size:(init_size_for scale panel))
    makers

let print_panel ppf ~(profile : Sim.Profile.t) ~panel
    (series : Sim_exp.series list) =
  Format.fprintf ppf "@.Fig. 2 [%s %s] throughput (1000 ops/sec) vs threads@."
    profile.name (Workload.panel_name panel);
  let threads =
    match series with
    | [] -> []
    | s :: _ -> List.map (fun (p : Sim_exp.point) -> p.threads) s.points
  in
  Format.fprintf ppf "%-18s" "threads";
  List.iter (fun t -> Format.fprintf ppf "%10d" t) threads;
  Format.fprintf ppf "@.";
  List.iter
    (fun (s : Sim_exp.series) ->
      Format.fprintf ppf "%-18s" s.structure;
      List.iter
        (fun (p : Sim_exp.point) ->
          Format.fprintf ppf "%10.0f" (p.throughput /. 1000.))
        s.points;
      Format.fprintf ppf "@.")
    series
