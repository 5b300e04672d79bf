(* Abstract values for dataflow channels: a reduced product of an unsigned
   interval and a known-bits (tri-state) bitvector, both relative to the
   channel's bit width.

   A channel's abstract value over-approximates the set of every data value
   any token on that channel ever carries during any execution.  [Bot] means
   the channel provably never carries a token.  [Any] is reserved for widths
   the simulator does not mask (>= 62 bits, where values occupy the full
   native int and can be negative); such channels are not analyzed.

   Representation invariants for [V { lo; hi; zeros; ones }] at width [w]
   with mask [m = 2^w - 1]:
     0 <= lo <= hi <= m
     zeros land ones = 0
     zeros, ones subsets of m
   [zeros] has a bit set where the value provably has a 0 bit; [ones] where
   it provably has a 1 bit. *)

type t =
  | Bot
  | Any
  | V of { lo : int; hi : int; zeros : int; ones : int }

(* Widths outside [1, 61] are not representable as masked unsigned ints:
   width <= 0 channels carry only the value 0 (the simulator masks with 0)
   and widths >= 62 are unmasked. *)
let mask_of w = if w <= 0 then Some 0 else if w >= 62 then None else Some ((1 lsl w) - 1)

let bits n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  if n <= 0 then 0 else go 0 n

(* Canonicalize a candidate quadruple at width [w]: exchange information
   between the interval and the bit facts, detect contradictions. *)
let reduce w ~lo ~hi ~zeros ~ones =
  match mask_of w with
  | None -> Any
  | Some m ->
      let zeros = zeros land m and ones = ones land m in
      if zeros land ones <> 0 then Bot
      else
        let lo = max lo ones in
        let hi = min hi (m land lnot zeros) in
        if lo > hi then Bot
        else
          (* bits at positions >= bitlen hi are provably zero *)
          let lead = m land lnot ((1 lsl bits hi) - 1) in
          let zeros = zeros lor lead in
          if lo = hi then V { lo; hi; zeros = m land lnot lo; ones = lo }
          else V { lo; hi; zeros; ones }

let top w =
  match mask_of w with
  | None -> Any
  | Some m -> reduce w ~lo:0 ~hi:m ~zeros:0 ~ones:0

let const w v =
  match mask_of w with
  | None -> Any
  | Some m ->
      let v = v land m in
      V { lo = v; hi = v; zeros = m land lnot v; ones = v }

let is_bot = function Bot -> true | _ -> false

(* Least upper bound (both arguments over-approximate token sets of the same
   channel, so width agrees). *)
let join w a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Any, _ | _, Any -> Any
  | V a, V b ->
      reduce w ~lo:(min a.lo b.lo) ~hi:(max a.hi b.hi) ~zeros:(a.zeros land b.zeros)
        ~ones:(a.ones land b.ones)

(* Greatest lower bound; used by branch refinement and descending passes. *)
let meet w a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Any, x | x, Any -> x
  | V a, V b ->
      reduce w ~lo:(max a.lo b.lo) ~hi:(min a.hi b.hi) ~zeros:(a.zeros lor b.zeros)
        ~ones:(a.ones lor b.ones)

(* Accelerated join: blow unstable interval ends to the extremes.  The
   known-bits component only ever loses bits under join (finite descending
   chains), so it needs no acceleration. *)
let widen w ~old ~next =
  let j = join w old next in
  match (old, j) with
  | V o, V n ->
      let lo = if n.lo < o.lo then 0 else n.lo in
      let hi =
        if n.hi > o.hi then match mask_of w with Some m -> m | None -> n.hi else n.hi
      in
      reduce w ~lo ~hi ~zeros:n.zeros ~ones:n.ones
  | _ -> j

let equal (a : t) (b : t) = a = b

(* A concrete value [v] is a member of the abstraction. *)
let mem w v t =
  match t with
  | Bot -> false
  | Any -> true
  | V { lo; hi; zeros; ones } -> (
      match mask_of w with
      | None -> true
      | Some _ ->
          v >= lo && v <= hi && v land zeros = 0 && v land ones = ones)

(* Re-interpret a value at a (possibly narrower) width: models the
   simulator masking a channel's data to the destination width. *)
let mask_to w t =
  match t with
  | Bot -> Bot
  | Any -> top w
  | V { lo; hi; zeros; ones } -> (
      match mask_of w with
      | None -> Any
      | Some m ->
          if hi <= m then reduce w ~lo ~hi ~zeros ~ones
          else reduce w ~lo:0 ~hi:m ~zeros:(zeros land m) ~ones:(ones land m))

(* Bits needed to represent every member at width [w]. *)
let needed_width w t =
  match t with
  | Any -> w
  | Bot -> 0
  | V { hi; _ } -> bits hi

let pp ?width fmt t =
  match t with
  | Bot -> Format.pp_print_string fmt "bot"
  | Any -> Format.pp_print_string fmt "any"
  | V { lo; hi; zeros; ones } ->
      if lo = hi then Format.fprintf fmt "{%d}" lo
      else begin
        Format.fprintf fmt "[%d,%d]" lo hi;
        let w = match width with Some w -> min w 61 | None -> bits hi in
        if zeros lor ones <> 0 && w > 0 && w <= 16 then begin
          Format.pp_print_string fmt " 0b";
          for i = w - 1 downto 0 do
            let b = 1 lsl i in
            Format.pp_print_char fmt
              (if zeros land b <> 0 then '0' else if ones land b <> 0 then '1' else 'x')
          done
        end
      end

let to_string ?width t = Format.asprintf "%a" (pp ?width) t
