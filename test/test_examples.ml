(* Smoke runs of the example programs. Each example is seeded and
   asserts its answer against a reference, so a nonzero exit is the
   failure signal. The executables are declared deps of the tests
   stanza; cwd is _build/default/test under `dune runtest`. *)

let examples =
  [
    "quickstart"; "dijkstra"; "event_sim"; "work_stealing"; "astar";
    "branch_bound";
  ]

let run name () =
  let exe = Filename.concat "../examples" (name ^ ".exe") in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  Alcotest.(check int)
    "exit code" 0
    (Sys.command (Filename.quote_command exe []))

let () =
  Alcotest.run "examples"
    [
      ( "run",
        List.map (fun name -> Alcotest.test_case name `Quick (run name)) examples
      );
    ]
