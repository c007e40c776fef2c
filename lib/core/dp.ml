let applicable ts = Model.Taskset.all_implicit_deadline ts

let wider_note = "a task is wider than the FPGA"
let domain_note = "DP requires implicit deadlines (D = T)"

(* the domain check is an O(N) int-tick scan, ahead of any rational
   work; the per-task division C_k/T_k and the area scan come
   precomputed in Params, so per task only the bound's two multiplies
   remain *)
let kernel ~test_name ~plus_one ~fpga_area ts =
  if not (applicable ts) then Verdict.reject_all ~test_name ~note:domain_note ts
  else begin
    let p = Params.of_taskset ts in
    if p.amax > fpga_area then Verdict.reject_all_n ~test_name ~note:wider_note p.n
    else begin
      let us = Params.total_us p in
      let a = Rat.of_int (fpga_area - p.amax + if plus_one then 1 else 0) in
      let note = "US(Gamma) vs (A(H)-Amax" ^ (if plus_one then "+1" else "") ^ ")(1-UT_k)+US_k" in
      let checks =
        List.init p.n (fun k ->
            let rhs = Rat.add (Rat.mul a (Rat.sub Rat.one p.u.(k))) (Rat.mul p.u.(k) p.area_q.(k)) in
            { Verdict.task_index = k; satisfied = Rat.compare us rhs <= 0; lhs = us; rhs; note })
      in
      Verdict.make ~test_name ~checks
    end
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.dp.decide" (fun () ->
      kernel ~test_name:"DP" ~plus_one:true ~fpga_area ts)

let decide_all ~fpga_area tss =
  Obs.Span.with_ ~name:"core.dp.decide" (fun () ->
      Array.map (kernel ~test_name:"DP" ~plus_one:true ~fpga_area) tss)

let accepts ~fpga_area ts = Verdict.accepted (decide ~fpga_area ts)
let decide_original ~fpga_area ts = kernel ~test_name:"DP-original" ~plus_one:false ~fpga_area ts
let accepts_original ~fpga_area ts = Verdict.accepted (decide_original ~fpga_area ts)
