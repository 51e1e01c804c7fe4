(* Sums and order statistics over float samples. *)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* The [q]-quantile, 0 <= q <= 1, interpolating between closest ranks. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Quant.quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
