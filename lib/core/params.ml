type t = {
  n : int;
  area : int array;
  area_q : Rat.t array;
  c : Rat.t array;
  d : Rat.t array;
  t : Rat.t array;
  u : Rat.t array;
  dens : Rat.t array;
  amax : int;
  amin : int;
}

let of_taskset ts =
  let cols = Model.Taskset.Columns.of_taskset ts in
  let n = cols.Model.Taskset.Columns.n in
  let rat_of_ticks x = Model.Time.to_rat (Model.Time.of_ticks x) in
  let area = cols.Model.Taskset.Columns.area in
  let c = Array.map rat_of_ticks cols.Model.Taskset.Columns.exec in
  let d = Array.map rat_of_ticks cols.Model.Taskset.Columns.deadline in
  let t = Array.map rat_of_ticks cols.Model.Taskset.Columns.period in
  {
    n;
    area;
    area_q = Array.map Rat.of_int area;
    c;
    d;
    t;
    u = Array.init n (fun i -> Rat.div c.(i) t.(i));
    dens = Array.init n (fun i -> Rat.div c.(i) d.(i));
    amax = Array.fold_left max 0 area;
    amin = Array.fold_left min max_int area;
  }

let total_us p =
  let acc = ref Rat.zero in
  for i = 0 to p.n - 1 do
    acc := Rat.add !acc (Rat.mul p.u.(i) p.area_q.(i))
  done;
  !acc
