let wider_note = "a task is wider than the FPGA"

(* O(N^2) interference sum over the Params views, the C_i/D_i densities
   precomputed once per taskset *)
let kernel ~test_name ~lemma3_form ~fpga_area (p : Params.t) =
  if p.amax > fpga_area then Verdict.reject_all_n ~test_name ~note:wider_note p.n
  else begin
    let check k =
      let slack = Rat.sub Rat.one p.dens.(k) in
      if Rat.sign slack < 0 then
        (* C_k > D_k: no schedule can meet the deadline *)
        {
          Verdict.task_index = k;
          satisfied = false;
          lhs = p.dens.(k);
          rhs = Rat.one;
          note = "C_k > D_k";
        }
      else begin
        let dk = p.d.(k) in
        let lhs = ref Rat.zero in
        for i = 0 to p.n - 1 do
          if i <> k then begin
            (* N_i = max(0, floor((D_k - D_i)/T_i) + 1)  (Lemma 4) *)
            let f = Rat.floor (Rat.div (Rat.sub dk p.d.(i)) p.t.(i)) in
            let ni = Rat.of_bignum (Bignum.max Bignum.zero (Bignum.succ f)) in
            (* beta_i = (N_i C_i + min(C_i, max(D_k - N_i T_i, 0))) / D_i *)
            let carry = Rat.min p.c.(i) (Rat.max (Rat.sub dk (Rat.mul ni p.t.(i))) Rat.zero) in
            let b = Rat.div (Rat.add (Rat.mul ni p.c.(i)) carry) p.d.(i) in
            lhs := Rat.add !lhs (Rat.mul p.area_q.(i) (Rat.min b slack))
          end
        done;
        (* Both variants compare strictly.  The paper's Lemma 3 states a
           non-strict bound, but random testing against exact-hyperperiod
           simulation exhibits deadline misses precisely at the equality
           boundary (e.g. (C=7.921, D=T=8, A=10) + (C=7.301, D=T=10, A=1)
           on A(H)=10, where lhs = rhs = 2699/1000 and the second task
           misses at t=10), so the non-strict reading is unsound; see
           DESIGN.md section 2 and test_regressions.ml. *)
        let abnd = fpga_area - p.area.(k) + if lemma3_form then 1 else 0 in
        let rhs = Rat.mul (Rat.of_int abnd) slack in
        let satisfied = Rat.compare !lhs rhs < 0 in
        { Verdict.task_index = k; satisfied; lhs = !lhs; rhs; note = "" }
      end
    in
    Verdict.make ~test_name ~checks:(List.init p.n check)
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn1.decide" (fun () ->
      kernel ~test_name:"GN1" ~lemma3_form:true ~fpga_area (Params.of_taskset ts))

let decide_all ~fpga_area tss =
  Obs.Span.with_ ~name:"core.gn1.decide" (fun () ->
      Array.map
        (fun ts -> kernel ~test_name:"GN1" ~lemma3_form:true ~fpga_area (Params.of_taskset ts))
        tss)

let accepts ~fpga_area ts = Verdict.accepted (decide ~fpga_area ts)

let decide_printed ~fpga_area ts =
  kernel ~test_name:"GN1-printed" ~lemma3_form:false ~fpga_area (Params.of_taskset ts)

let accepts_printed ~fpga_area ts = Verdict.accepted (decide_printed ~fpga_area ts)
