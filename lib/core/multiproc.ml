let width_one ts = List.for_all (fun (t : Model.Task.t) -> t.area = 1) (Model.Taskset.to_list ts)

let require_width_one name ts =
  if not (width_one ts) then invalid_arg (name ^ ": taskset must have all areas = 1")

let gfb_direct ~m ts =
  require_width_one "Multiproc.gfb_direct" ts;
  let umax =
    List.fold_left
      (fun acc q -> Rat.max acc (Model.Task.time_utilization q))
      Rat.zero (Model.Taskset.to_list ts)
  in
  let bound = Rat.add (Rat.mul (Rat.of_int m) (Rat.sub Rat.one umax)) umax in
  Rat.compare (Model.Taskset.time_utilization ts) bound <= 0

let gfb ~m ts =
  require_width_one "Multiproc.gfb" ts;
  Dp.decide ~fpga_area:m ts

let bcl ~m ts =
  require_width_one "Multiproc.bcl" ts;
  Gn1.decide ~fpga_area:m ts

let bak2 ~m ts =
  require_width_one "Multiproc.bak2" ts;
  Gn2.decide ~fpga_area:m ts
