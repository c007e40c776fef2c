(* Test oracles: the paper's three sufficient tests (and approx's area
   demand) written straight from the theorem statements over Model.Task
   records, with no Core.Params view, no precomputation and no metrics.
   Each is the slowest obvious reading of its formula; the library's
   decide kernels must print exactly the same verdict bytes
   (test_columns.ml), and the paper-table tests read the quoted
   intermediate values (bounds, N_i, beta, lambda evaluations) from
   here. *)

module Task = Model.Task
module Time = Model.Time

let wider_note = "a task is wider than the FPGA"
let tasks ts = Model.Taskset.to_array ts
let c_of (t : Task.t) = Time.to_rat t.exec
let d_of (t : Task.t) = Time.to_rat t.deadline
let t_of (t : Task.t) = Time.to_rat t.period
let a_of (t : Task.t) = Rat.of_int t.area
let fits ~fpga_area ts = Model.Taskset.amax ts <= fpga_area

(* --- DP, Theorem 1 --- *)

module Dp = struct
  let domain_note = "DP requires implicit deadlines (D = T)"

  (* (A(H) - Amax [+ 1]) (1 - UT_k) + US_k *)
  let bound_of ~plus_one ~fpga_area ts (tk : Task.t) =
    let a = fpga_area - Model.Taskset.amax ts + if plus_one then 1 else 0 in
    Rat.add
      (Rat.mul (Rat.of_int a) (Rat.sub Rat.one (Task.time_utilization tk)))
      (Task.system_utilization tk)

  let bound ?(plus_one = true) ~fpga_area ts ~k =
    let tasks = tasks ts in
    if k < 0 || k >= Array.length tasks then invalid_arg "Dp.bound: task index out of range";
    bound_of ~plus_one ~fpga_area ts tasks.(k)

  let decide ?(plus_one = true) ~fpga_area ts =
    let test_name = if plus_one then "DP" else "DP-original" in
    if not (Model.Taskset.all_implicit_deadline ts) then
      Core.Verdict.reject_all ~test_name ~note:domain_note ts
    else if not (fits ~fpga_area ts) then Core.Verdict.reject_all ~test_name ~note:wider_note ts
    else begin
      let us = Model.Taskset.system_utilization ts in
      let note = "US(Gamma) vs (A(H)-Amax" ^ (if plus_one then "+1" else "") ^ ")(1-UT_k)+US_k" in
      let checks =
        List.mapi
          (fun k tk ->
            let rhs = bound_of ~plus_one ~fpga_area ts tk in
            let satisfied = Rat.compare us rhs <= 0 in
            { Core.Verdict.task_index = k; satisfied; lhs = us; rhs; note })
          (Model.Taskset.to_list ts)
      in
      Core.Verdict.make ~test_name ~checks
    end
end

(* --- GN1, Theorem 2 --- *)

module Gn1 = struct
  (* N_i = max(0, floor((D_k - D_i)/T_i) + 1)  (Lemma 4) *)
  let n_jobs_of ~(tk : Task.t) (ti : Task.t) =
    let f = Rat.floor (Rat.div (Rat.sub (d_of tk) (d_of ti)) (t_of ti)) in
    Bignum.max Bignum.zero (Bignum.succ f)

  (* beta_i = (N_i C_i + min(C_i, max(D_k - N_i T_i, 0))) / D_i *)
  let beta_of ~tk ti =
    let ni = Rat.of_bignum (n_jobs_of ~tk ti) in
    let carry = Rat.min (c_of ti) (Rat.max (Rat.sub (d_of tk) (Rat.mul ni (t_of ti))) Rat.zero) in
    Rat.div (Rat.add (Rat.mul ni (c_of ti)) carry) (d_of ti)

  let pair ts ~k ~i =
    let tasks = tasks ts in
    let n = Array.length tasks in
    if k < 0 || k >= n || i < 0 || i >= n then invalid_arg "Gn1: task index out of range";
    if k = i then invalid_arg "Gn1: interference of a task on itself is undefined";
    (tasks.(k), tasks.(i))

  let n_jobs ts ~k ~i =
    let tk, ti = pair ts ~k ~i in
    n_jobs_of ~tk ti

  let beta ts ~k ~i =
    let tk, ti = pair ts ~k ~i in
    beta_of ~tk ti

  let decide ?(lemma3_form = true) ~fpga_area ts =
    let test_name = if lemma3_form then "GN1" else "GN1-printed" in
    if not (fits ~fpga_area ts) then Core.Verdict.reject_all ~test_name ~note:wider_note ts
    else begin
      let tasks = tasks ts in
      let check k tk =
        let density = Task.density tk in
        let slack = Rat.sub Rat.one density in
        if Rat.sign slack < 0 then
          let note = "C_k > D_k" in
          { Core.Verdict.task_index = k; satisfied = false; lhs = density; rhs = Rat.one; note }
        else begin
          let term i ti =
            if i = k then Rat.zero else Rat.mul (a_of ti) (Rat.min (beta_of ~tk ti) slack)
          in
          let lhs = Rat.sum (Array.to_list (Array.mapi term tasks)) in
          (* strict, in both forms: see Core.Gn1 *)
          let abnd = fpga_area - tk.area + if lemma3_form then 1 else 0 in
          let rhs = Rat.mul (Rat.of_int abnd) slack in
          { Core.Verdict.task_index = k; satisfied = Rat.compare lhs rhs < 0; lhs; rhs; note = "" }
        end
      in
      Core.Verdict.make ~test_name ~checks:(Array.to_list (Array.mapi check tasks))
    end
end

(* --- GN2, Theorem 3 --- *)

module Gn2 = struct
  let task ts k =
    let tasks = tasks ts in
    if k < 0 || k >= Array.length tasks then invalid_arg "Gn2: task index out of range";
    tasks.(k)

  (* beta^lambda_k(i) as in Lemma 7, the middle case's C_k/T_k typo
     corrected to C_i/T_i (DESIGN.md section 2) *)
  let beta_of ~tk ti ~lambda =
    let ui = Task.time_utilization ti in
    let light = Rat.compare ui lambda <= 0 in
    let finishes = Rat.compare lambda (Task.density ti) >= 0 in
    let open Rat.Infix in
    if light then Rat.max ui ((ui * (Rat.one - (d_of ti / d_of tk))) + (c_of ti / d_of tk))
    else if finishes then ui
    else ui + ((c_of ti - (lambda * d_of ti)) / d_of tk)

  (* i = k is allowed: the Theorem-3 sums range over all tasks *)
  let beta_lambda ts ~k ~i ~lambda = beta_of ~tk:(task ts k) (task ts i) ~lambda

  (* the discontinuity points of beta: C_i/T_i, and C_i/D_i when
     D_i > T_i, within [C_k/T_k, min(1, D_k/T_k)] *)
  let lambda_candidates ts ~k =
    let tk = task ts k in
    let lo = Task.time_utilization tk in
    let hi = Rat.min Rat.one (Rat.div (d_of tk) (t_of tk)) in
    Model.Taskset.to_list ts
    |> List.concat_map (fun ti ->
           let ui = Task.time_utilization ti in
           if Rat.compare (d_of ti) (t_of ti) > 0 then [ ui; Task.density ti ] else [ ui ])
    |> List.filter (fun l -> Rat.compare l lo >= 0 && Rat.compare l hi <= 0)
    |> List.sort_uniq Rat.compare

  type lambda_eval = {
    lambda : Rat.t;
    lambda_k : Rat.t;
    cond1_lhs : Rat.t;
    cond1_rhs : Rat.t;
    cond1 : bool;
    cond2_lhs : Rat.t;
    cond2_rhs : Rat.t;
    cond2 : bool;
  }

  let evaluate_lambda ~fpga_area ts ~k ~lambda =
    let tk = task ts k in
    (* lambda_k = lambda * max(1, T_k/D_k) *)
    let lambda_k = Rat.mul lambda (Rat.max Rat.one (Rat.div (t_of tk) (d_of tk))) in
    let abnd = Rat.of_int (fpga_area - Model.Taskset.amax ts + 1) in
    let amin = Rat.of_int (Model.Taskset.amin ts) in
    let one_minus = Rat.sub Rat.one lambda_k in
    let sum cap =
      Rat.sum
        (List.map
           (fun ti -> Rat.mul (a_of ti) (Rat.min (beta_of ~tk ti ~lambda) cap))
           (Model.Taskset.to_list ts))
    in
    let cond1_lhs = sum one_minus and cond2_lhs = sum Rat.one in
    let cond1_rhs = Rat.mul abnd one_minus in
    let cond2_rhs = Rat.add (Rat.mul (Rat.sub abnd amin) one_minus) amin in
    {
      lambda;
      lambda_k;
      cond1_lhs;
      cond1_rhs;
      cond1 = Rat.compare cond1_lhs cond1_rhs < 0;
      cond2_lhs;
      cond2_rhs;
      cond2 = Rat.compare cond2_lhs cond2_rhs < 0;
    }

  let check ~k ~satisfied ~lhs ~rhs note =
    { Core.Verdict.task_index = k; satisfied; lhs; rhs; note }

  (* exhaustive: every candidate of task k is evaluated, then the first
     one satisfying a condition is reported (condition 1 preferred), else
     the one whose condition-2 margin came closest, first on ties *)
  let decide_k ~fpga_area ts k =
    let evs =
      List.map (fun lambda -> evaluate_lambda ~fpga_area ts ~k ~lambda) (lambda_candidates ts ~k)
    in
    let at ev = Format.asprintf "%a" Rat.pp ev.lambda in
    match List.find_opt (fun ev -> ev.cond1 || ev.cond2) evs with
    | Some ev when ev.cond1 ->
      check ~k ~satisfied:true ~lhs:ev.cond1_lhs ~rhs:ev.cond1_rhs
        ("condition 1 at lambda=" ^ at ev)
    | Some ev ->
      check ~k ~satisfied:true ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
        ("condition 2 at lambda=" ^ at ev)
    | None -> (
      let margin ev = Rat.sub ev.cond2_lhs ev.cond2_rhs in
      let closer best ev = if Rat.compare (margin ev) (margin best) < 0 then ev else best in
      match evs with
      | [] ->
        check ~k ~satisfied:false ~lhs:Rat.zero ~rhs:Rat.zero "no lambda candidate in range"
      | ev0 :: rest ->
        let ev = List.fold_left closer ev0 rest in
        check ~k ~satisfied:false ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
          ("no lambda works; closest lambda=" ^ at ev))

  let decide ~fpga_area ts =
    let test_name = "GN2" in
    if not (fits ~fpga_area ts) then Core.Verdict.reject_all ~test_name ~note:wider_note ts
    else
      Core.Verdict.make ~test_name
        ~checks:(List.init (Model.Taskset.size ts) (decide_k ~fpga_area ts))
end

(* --- approx: h(t) = sum_i dbf_i(t) C_i A_i, in column-ticks --- *)

let area_demand ts ~at =
  let t = Time.ticks at in
  List.fold_left
    (fun acc (task : Task.t) ->
      let d = Time.ticks task.deadline and p = Time.ticks task.period in
      if t < d then acc else acc + ((((t - d) / p) + 1) * Time.ticks task.exec * task.area))
    0 (Model.Taskset.to_list ts)
