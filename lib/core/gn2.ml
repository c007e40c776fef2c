(* candidates actually evaluated: the observable cost of the sweep *)
let m_lambda_evals = Obs.Counter.make "core.gn2.lambda_evals"

let wider_note = "a task is wider than the FPGA"

(* the four shapes a per-task check record takes *)
let check_cond1 ~k ~lambda ~lhs ~rhs =
  {
    Verdict.task_index = k;
    satisfied = true;
    lhs;
    rhs;
    note = Format.asprintf "condition 1 at lambda=%a" Rat.pp lambda;
  }

let check_cond2 ~k ~lambda ~lhs ~rhs =
  {
    Verdict.task_index = k;
    satisfied = true;
    lhs;
    rhs;
    note = Format.asprintf "condition 2 at lambda=%a" Rat.pp lambda;
  }

let check_closest ~k ~lambda ~lhs ~rhs =
  {
    Verdict.task_index = k;
    satisfied = false;
    lhs;
    rhs;
    note = Format.asprintf "no lambda works; closest lambda=%a" Rat.pp lambda;
  }

let check_no_candidate ~k =
  {
    Verdict.task_index = k;
    satisfied = false;
    lhs = Rat.zero;
    rhs = Rat.zero;
    note = "no lambda candidate in range";
  }

(* --- the lambda sweep --------------------------------------------------

   Lemma 7's beta is, for fixed k, a hinge in lambda:

     beta_i(lambda) = max(K_i, A_i - B_i lambda)
       A_i = u_i + C_i/D_k      B_i = D_i/D_k
       K_i = u_i + smax_i/D_k   smax_i = max(C_i - u_i D_i, 0)

   (the three printed cases coincide with this: the descending branch
   A_i - B_i lambda is active for lambda <= kink_i and the constant K_i
   beyond, where kink_i = u_i when D_i <= T_i and C_i/D_i otherwise).
   Both condition sums are therefore piecewise-linear in lambda, so per k
   we classify each task's min(...) term once per breakpoint interval,
   turn piece changes into (delta-slope, delta-intercept) events, and
   evaluate every candidate in O(1) from running linear coefficients.
   Together with the single globally-sorted candidate array (built once
   per taskset, sliced per k) this avoids an O(N) beta fold per
   candidate: O(N^2 log N) per taskset instead of O(N^3).

   Piece classification samples the exact-rational midpoint of each
   subinterval; continuity of min/max of linear functions makes the
   sampled piece valid on the closed subinterval, so candidates sitting
   exactly on a breakpoint get the same value either side.  All
   arithmetic stays in Rat, so every lhs/rhs is value-equal — hence
   byte-identical once printed — to the direct per-candidate fold of
   Theorem 3 (test/oracle.ml pins this). *)

type pre = {
  p : Params.t;
  kink : Rat.t array;  (* where beta_i's descending branch meets K_i *)
  smax : Rat.t array;  (* max(C_i - u_i D_i, 0) *)
  cands : Rat.t array;  (* all discontinuity points, sorted, unique *)
}

let precompute (p : Params.t) =
  let n = p.Params.n in
  let c = p.Params.c and d = p.Params.d and t = p.Params.t in
  let u = p.Params.u and dens = p.Params.dens in
  let kink = Array.init n (fun i -> if Rat.compare d.(i) t.(i) <= 0 then u.(i) else dens.(i)) in
  let smax =
    Array.init n (fun i ->
        if Rat.compare d.(i) t.(i) <= 0 then Rat.sub c.(i) (Rat.mul u.(i) d.(i)) else Rat.zero)
  in
  let disc = ref [] in
  for i = n - 1 downto 0 do
    if Rat.compare d.(i) t.(i) > 0 then disc := dens.(i) :: !disc;
    disc := u.(i) :: !disc
  done;
  let cands = Array.of_list (List.sort_uniq Rat.compare !disc) in
  { p; kink; smax; cands }

type event = { at : Rat.t; dp1 : Rat.t; dq1 : Rat.t; dp2 : Rat.t; dq2 : Rat.t }

let sweep_k ~abnd ~aminq pre k =
  let p = pre.p in
  let n = p.Params.n in
  let u = p.Params.u and c = p.Params.c and d = p.Params.d in
  let t = p.Params.t and area_q = p.Params.area_q in
  let lo = u.(k) in
  let hi = Rat.min Rat.one (Rat.div d.(k) t.(k)) in
  (* candidate slice [first, last] of the global sorted array *)
  let ncand = Array.length pre.cands in
  let first = ref 0 in
  while !first < ncand && Rat.compare pre.cands.(!first) lo < 0 do
    incr first
  done;
  let last = ref (ncand - 1) in
  while !last >= 0 && Rat.compare pre.cands.(!last) hi > 0 do
    decr last
  done;
  if !first > !last then check_no_candidate ~k
  else begin
    let dk = d.(k) in
    let inv_dk = Rat.inv dk in
    let mk = Rat.max Rat.one (Rat.div t.(k) dk) in
    let neg_mk = Rat.neg mk in
    let two = Rat.of_int 2 in
    (* running linear coefficients: on the current piece,
       cond1_lhs = p1 + q1*lambda and cond2_lhs = p2 + q2*lambda *)
    let p1 = ref Rat.zero and q1 = ref Rat.zero in
    let p2 = ref Rat.zero and q2 = ref Rat.zero in
    let events = ref [] in
    for i = 0 to n - 1 do
      let ai = area_q.(i) in
      let a_ = Rat.add u.(i) (Rat.mul c.(i) inv_dk) in
      let b_ = Rat.mul d.(i) inv_dk in
      let neg_b = Rat.neg b_ in
      let k_ = Rat.add u.(i) (Rat.mul pre.smax.(i) inv_dk) in
      let kink = pre.kink.(i) in
      let eval (pp, qq) x = Rat.add pp (Rat.mul qq x) in
      (* active branch of the beta hinge at sample point x *)
      let beta_piece x = if Rat.compare x kink <= 0 then (a_, neg_b) else (k_, Rat.zero) in
      (* term of cond 1: min(beta_i, 1 - mk*lambda) *)
      let classify1 x =
        let g = beta_piece x in
        if Rat.compare (eval g x) (Rat.sub Rat.one (Rat.mul mk x)) <= 0 then g else (Rat.one, neg_mk)
      in
      (* term of cond 2: min(beta_i, 1) *)
      let classify2 x =
        let g = beta_piece x in
        if Rat.compare (eval g x) Rat.one <= 0 then g else (Rat.one, Rat.zero)
      in
      (* candidate breakpoints: the hinge plus each branch's crossing
         with the min partner.  Spurious points (crossings outside the
         active branch) only cost a zero-delta event. *)
      let bps1 =
        let base = [ kink; Rat.div (Rat.sub Rat.one k_) mk ] in
        if Rat.equal b_ mk then base
        else Rat.div (Rat.sub a_ Rat.one) (Rat.sub b_ mk) :: base
      in
      let bps2 = [ kink; Rat.div (Rat.sub a_ Rat.one) b_ ] in
      let add_term ~cond1 classify bps pref qref =
        let pts =
          List.sort_uniq Rat.compare
            (List.filter (fun b -> Rat.compare b lo > 0 && Rat.compare b hi < 0) bps)
        in
        let sample x y = if Rat.equal x y then x else Rat.div (Rat.add x y) two in
        let first_piece = classify (sample lo (match pts with [] -> hi | b :: _ -> b)) in
        pref := Rat.add !pref (Rat.mul ai (fst first_piece));
        qref := Rat.add !qref (Rat.mul ai (snd first_piece));
        let rec go (cp, cq) = function
          | [] -> ()
          | b :: rest ->
            let right = match rest with [] -> hi | r :: _ -> r in
            let np, nq = classify (sample b right) in
            if not (Rat.equal np cp && Rat.equal nq cq) then begin
              let dp = Rat.mul ai (Rat.sub np cp) and dq = Rat.mul ai (Rat.sub nq cq) in
              events :=
                (if cond1 then { at = b; dp1 = dp; dq1 = dq; dp2 = Rat.zero; dq2 = Rat.zero }
                 else { at = b; dp1 = Rat.zero; dq1 = Rat.zero; dp2 = dp; dq2 = dq })
                :: !events
            end;
            go (np, nq) rest
        in
        go first_piece pts
      in
      add_term ~cond1:true classify1 bps1 p1 q1;
      add_term ~cond1:false classify2 bps2 p2 q2
    done;
    let evs = Array.of_list !events in
    Array.sort (fun e1 e2 -> Rat.compare e1.at e2.at) evs;
    let ne = Array.length evs in
    let ei = ref 0 in
    (* best-so-far for the reject note: (lambda, cond2_lhs, cond2_rhs, margin) *)
    let rec search best ci =
      if ci > !last then begin
        match best with
        | Some (lambda, lhs, rhs, _) -> check_closest ~k ~lambda ~lhs ~rhs
        | None -> check_no_candidate ~k (* unreachable: the slice is non-empty *)
      end
      else begin
        let lambda = pre.cands.(ci) in
        while !ei < ne && Rat.compare evs.(!ei).at lambda <= 0 do
          let e = evs.(!ei) in
          p1 := Rat.add !p1 e.dp1;
          q1 := Rat.add !q1 e.dq1;
          p2 := Rat.add !p2 e.dp2;
          q2 := Rat.add !q2 e.dq2;
          incr ei
        done;
        Obs.Counter.incr m_lambda_evals;
        let one_minus = Rat.sub Rat.one (Rat.mul lambda mk) in
        let cond1_lhs = Rat.add !p1 (Rat.mul !q1 lambda) in
        let cond1_rhs = Rat.mul abnd one_minus in
        if Rat.compare cond1_lhs cond1_rhs < 0 then check_cond1 ~k ~lambda ~lhs:cond1_lhs ~rhs:cond1_rhs
        else begin
          let cond2_lhs = Rat.add !p2 (Rat.mul !q2 lambda) in
          let cond2_rhs = Rat.add (Rat.mul (Rat.sub abnd aminq) one_minus) aminq in
          if Rat.compare cond2_lhs cond2_rhs < 0 then
            check_cond2 ~k ~lambda ~lhs:cond2_lhs ~rhs:cond2_rhs
          else begin
            let margin = Rat.sub cond2_lhs cond2_rhs in
            let best =
              match best with
              | Some (_, _, _, bm) when Rat.compare margin bm >= 0 -> best
              | _ -> Some (lambda, cond2_lhs, cond2_rhs, margin)
            in
            search best (ci + 1)
          end
        end
      end
    in
    search None !first
  end

let kernel ~fpga_area (p : Params.t) =
  let test_name = "GN2" in
  if p.Params.amax > fpga_area then
    Verdict.reject_all_n ~test_name ~note:wider_note p.Params.n
  else begin
    let pre = precompute p in
    let abnd = Rat.of_int (fpga_area - p.Params.amax + 1) in
    let aminq = Rat.of_int p.Params.amin in
    Verdict.make ~test_name ~checks:(List.init p.Params.n (sweep_k ~abnd ~aminq pre))
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn2.decide" (fun () ->
      kernel ~fpga_area (Params.of_taskset ts))

let decide_all ~fpga_area tss =
  Obs.Span.with_ ~name:"core.gn2.decide" (fun () ->
      Array.map (fun ts -> kernel ~fpga_area (Params.of_taskset ts)) tss)

let accepts ~fpga_area ts = Verdict.accepted (decide ~fpga_area ts)
