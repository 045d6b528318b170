(* Determinism self-check: each workload runs twice with one seed at a
   small size, bounded by iterations rather than time, and every count
   that must repeat exactly is compared; a second seed must change the
   generated inputs. *)

open Harness

let repeats name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "link_msgs_per_refresh"; "link_bytes_per_refresh"; "differential."; "fixup.";
      "mvcc.pages_copied_per_commit"; "slo_miss_rate"; "wal.appends"; "wal.append_bytes";
      "refreshes" ]

let iterations = 6

let run workloads reset =
  let bad = ref 0 in
  let once run seed =
    reset ();
    run ~small:true ~seed ~budget:{ seconds = 3600.0; max_iters = iterations } ~trace:false
      ~out:".";
    if report.failed > 0 then begin
      incr bad;
      List.iter (Printf.printf "  check failed: %s\n") report.failures
    end;
    let counts =
      List.sort compare
        (List.filter_map
           (fun m -> if repeats m.name then Some (m.name, m.value) else None)
           report.metrics)
    in
    (counts, !input_digest)
  in
  List.iter
    (fun (name, run) ->
      let c1, d1 = once run 1 in
      let c2, d2 = once run 1 in
      let _, d3 = once run 2 in
      let differing = List.filter (fun (n, v) -> List.assoc_opt n c2 <> Some v) c1 in
      if differing <> [] || List.length c1 <> List.length c2 then begin
        incr bad;
        List.iter
          (fun (n, v) ->
            Printf.printf "  %s: %s = %g, then %s\n" name n v
              (match List.assoc_opt n c2 with Some v' -> Printf.sprintf "%g" v' | None -> "absent"))
          differing
      end;
      if d1 <> d2 then begin
        incr bad;
        Printf.printf "  %s: seed 1 drew different inputs twice\n" name
      end;
      if d1 = d3 then begin
        incr bad;
        Printf.printf "  %s: seeds 1 and 2 drew the same inputs\n" name
      end;
      Printf.printf "%s: %d repeatable counts compared, inputs %s / %s\n%!" name (List.length c1) d1
        d3)
    workloads;
  if !bad > 0 then begin
    Printf.printf "selfcheck: %d problems\n" !bad;
    exit 1
  end;
  print_endline "selfcheck: ok"
