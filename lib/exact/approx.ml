[@@@redf.det]
[@@@redf.exact]

module Time = Model.Time
module Taskset = Model.Taskset

let default_eps = Rat.of_ints 1 10
let default_horizon_cap = Time.of_units 10_000
let m_analyses = Obs.Counter.make "exact.approx.analyses"
let m_points = Obs.Counter.make "exact.approx.points"

(* h over the columnar views: the point scans below evaluate h at
   O(n + log horizon) points, so this loop is their dominant cost *)
let area_demand (cols : Taskset.Columns.t) ~at_ticks =
  let t = at_ticks in
  let acc = ref 0 in
  for i = 0 to cols.Taskset.Columns.n - 1 do
    let d = cols.Taskset.Columns.deadline.(i) and p = cols.Taskset.Columns.period.(i) in
    if t >= d then
      acc := !acc + ((((t - d) / p) + 1) * cols.Taskset.Columns.exec.(i) * cols.Taskset.Columns.area.(i))
  done;
  !acc

type outcome =
  | Accepted of { horizon : Time.t; points : int; partial : bool; peak : Rat.t }
  | Refuted_at of { at : Time.t; demand : int; supply : int }
  | Refuted_overload of { us : Rat.t }

(* any violation of h(t) <= A t lies at or below
   sum_i A_i C_i (T_i - D_i)/T_i / (A - US), because
   h(t) <= US t + sum_i A_i C_i (T_i - D_i)/T_i for every t *)
let slack_bound ~fpga_area ts =
  let a = Rat.of_int fpga_area in
  let us = Taskset.system_utilization ts in
  if Rat.compare us a >= 0 then None
  else
    let slack_sum =
      Rat.sum
        (List.map
           (fun (task : Model.Task.t) ->
             let p = Time.ticks task.Model.Task.period in
             Rat.mul
               (Rat.of_int (task.Model.Task.area * Time.ticks task.Model.Task.exec))
               (Rat.of_ints (p - Time.ticks task.Model.Task.deadline) p))
           (Taskset.to_list ts))
    in
    if Rat.sign slack_sum <= 0 then Some Rat.zero
    else Some (Rat.div slack_sum (Rat.sub a us))

(* every task's first absolute deadline, then a geometric tail with
   ratio (1 + eps) — consecutive points at most a factor (1 + eps) or
   one tick apart, and h only changes at integer ticks, so checking the
   points certifies h(t) <= (1 + eps) A t everywhere below the horizon *)
let check_points ~eps ~horizon ts =
  let first_deadlines =
    List.filter_map
      (fun (task : Model.Task.t) ->
        let d = Time.ticks task.Model.Task.deadline in
        if d >= 1 && d <= horizon then Some d else None)
      (Taskset.to_list ts)
  in
  match first_deadlines with
  | [] -> []
  | d :: ds ->
    let dmin = List.fold_left min d ds in
    let one_plus_eps = Rat.add Rat.one eps in
    let rec geo p acc =
      if p >= horizon then acc
      else
        let next =
          min horizon (max (p + 1) (Rat.floor_int (Rat.mul (Rat.of_int p) one_plus_eps)))
        in
        geo next (next :: acc)
    in
    List.sort_uniq Int.compare (first_deadlines @ geo dmin [ dmin ] @ [ horizon ])

let analyze ?(eps = default_eps) ?(horizon_cap = default_horizon_cap) ~fpga_area ts =
  if Rat.sign eps <= 0 then invalid_arg "Approx.analyze: eps must be positive";
  Obs.Counter.incr m_analyses;
  match Taskset.system_utilization ts with
  | us when Rat.compare us (Rat.of_int fpga_area) > 0 -> Refuted_overload { us }
  | _ ->
    let cap = Time.ticks horizon_cap in
    let dmax =
      List.fold_left
        (fun m (task : Model.Task.t) -> max m (Time.ticks task.Model.Task.deadline))
        0 (Taskset.to_list ts)
    in
    let hyper_bound =
      match Taskset.hyperperiod ~cap:horizon_cap ts with
      | Taskset.Finite h ->
        let b = Time.ticks h + dmax in
        if b <= cap then Some b else None
      | Taskset.Exceeds_cap -> None
    in
    let slack =
      match slack_bound ~fpga_area ts with
      | Some b when Rat.compare b (Rat.of_int cap) <= 0 -> Some (max 0 (Rat.floor_int b))
      | Some _ | None -> None
    in
    let horizon, partial =
      match (hyper_bound, slack) with
      | None, None -> (cap, true)
      | Some b, None | None, Some b -> (b, false)
      | Some b1, Some b2 -> (min b1 b2, false)
    in
    let points = check_points ~eps ~horizon ts in
    Obs.Counter.add m_points (List.length points);
    let cols = Taskset.Columns.of_taskset ts in
    let rec scan peak = function
      | [] ->
        Accepted { horizon = Time.of_ticks horizon; points = List.length points; partial; peak }
      | p :: rest ->
        let demand = area_demand cols ~at_ticks:p in
        let supply = fpga_area * p in
        if demand > supply then Refuted_at { at = Time.of_ticks p; demand; supply }
        else scan (Rat.max peak (Rat.of_ints demand p)) rest
    in
    scan Rat.zero points

let verdict ~eps ~name ~fpga_area ts =
  if not (Taskset.fits ts ~fpga_area) then
    Core.Verdict.reject_all ~test_name:name ~note:"a task is wider than the FPGA" ts
  else begin
    let rhs = Rat.of_int fpga_area in
    let satisfied, lhs, note =
      match analyze ~eps ~fpga_area ts with
      | Refuted_overload { us } ->
        ( false,
          us,
          Printf.sprintf
            "long-run overload: US = %s column-units/unit exceeds A(H) = %d (infeasible under \
             any scheduler)"
            (Rat.to_string us) fpga_area )
      | Refuted_at { at; demand; supply = _ } ->
        ( false,
          Rat.of_ints demand (Time.ticks at),
          Printf.sprintf
            "area demand exceeds supply at t=%s: h(t)/t = %s columns > A(H) = %d; REJECT is \
             exact (necessary criterion violated, infeasible under any scheduler)"
            (Time.to_string at)
            (Rat.to_string (Rat.of_ints demand (Time.ticks at)))
            fpga_area )
      | Accepted { horizon; points; partial; peak } ->
        ( true,
          peak,
          if points = 0 then
            "US <= A(H) and the utilization-slack bound is zero: the necessary criterion holds \
             everywhere, no test points needed"
          else
            Printf.sprintf
              "no area-demand violation at %d test points up to t=%s; eps = %s certifies h(t) \
               <= (1+eps) A(H) t below the horizon%s"
              points (Time.to_string horizon) (Rat.to_string eps)
              (if partial then " (horizon capped: prefix certificate only)" else "") )
    in
    let checks =
      List.mapi
        (fun i _ -> { Core.Verdict.task_index = i; satisfied; lhs; rhs; note })
        (Taskset.to_list ts)
    in
    Core.Verdict.make ~test_name:name ~checks
  end
