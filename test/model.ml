(* Shared test helpers, linked into every test executable: a sequential
   priority-queue model, qcheck generators of operation scripts, and a
   checker that drives any [Harness.Pq.t] handle against the model. *)

(** Sorted-multiset model of an int priority queue. *)
module Pq_model = struct
  type t = int list ref (* ascending *)

  let create () = ref []

  let insert t v =
    let rec ins = function
      | [] -> [ v ]
      | x :: rest as l -> if v <= x then v :: l else x :: ins rest
    in
    t := ins !t

  let extract_min t =
    match !t with
    | [] -> None
    | x :: rest ->
        t := rest;
        Some x

  let peek_min t = match !t with [] -> None | x :: _ -> Some x

  let size t = List.length !t

  let to_list t = !t
end

(** Operations scripts for model-equivalence tests. *)
type op = Insert of int | Extract | Peek | Extract_many | Extract_approx

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun v -> Insert v) (int_bound 1000));
        (3, return Extract);
        (1, return Peek);
        (1, return Extract_many);
        (1, return Extract_approx);
      ])

let op_print = function
  | Insert v -> Printf.sprintf "Insert %d" v
  | Extract -> "Extract"
  | Peek -> "Peek"
  | Extract_many -> "ExtractMany"
  | Extract_approx -> "ExtractApprox"

let ops_arbitrary =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_bound 400) op_gen)

(** Run a script against a fresh handle from [make] and the model
    simultaneously: extract-min results are compared to the model's
    minimum; extract_many must be sorted and headed by the model's
    minimum; extract_approx must remove {e some} member. Returns false
    on the first divergence. *)
let agrees_with_model ?(trials = 1) (make : unit -> Harness.Pq.t) script =
  let run () =
    let sut = make () in
    let model = Pq_model.create () in
    let ok = ref true in
    (* remove one occurrence of [v] from the model, flagging a divergence
       if it is absent *)
    let remove_one v =
      let rec remove = function
        | [] ->
            ok := false;
            []
        | x :: rest -> if x = v then rest else x :: remove rest
      in
      model := remove !model
    in
    let step op =
      match op with
      | Insert v ->
          sut.insert v;
          Pq_model.insert model v
      | Extract ->
          let got = sut.extract_min () in
          let want = Pq_model.extract_min model in
          if got <> want then ok := false
      | Peek ->
          let got = sut.peek_min () in
          if got <> Pq_model.peek_min model then ok := false
      | Extract_many ->
          (* The batch is the root's sorted list: its head is the global
             minimum, but later elements need not be successive minima
             (the paper calls this out in §V). Check sortedness, that the
             head is the minimum, and multiset membership. *)
          let got = sut.extract_many () in
          if got <> List.sort compare got then ok := false;
          (match (got, Pq_model.peek_min model) with
          | v :: _, Some m -> if v <> m then ok := false
          | [], Some _ -> ok := false
          | _ :: _, None -> ok := false
          | [], None -> ());
          List.iter remove_one got
      | Extract_approx -> (
          (* approximate: must return some member (any sub-mound minimum) *)
          match sut.extract_approx () with
          | None -> if Pq_model.peek_min model <> None then ok := false
          | Some v -> remove_one v)
    in
    List.iter step script;
    if not (sut.check ()) then ok := false;
    if sut.size () <> Pq_model.size model then ok := false;
    (* drain both; remaining contents must agree *)
    let rec drain acc =
      match sut.extract_min () with
      | None -> List.rev acc
      | Some v -> drain (v :: acc)
    in
    if drain [] <> Pq_model.to_list model then ok := false;
    !ok
  in
  let rec go n = n = 0 || (run () && go (n - 1)) in
  go trials

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
