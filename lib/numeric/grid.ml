(* Scaled-integer grids and the staged filter's second stage.

   The interval filter (stage 1, {!Filter}) certifies a predicate only
   when its float enclosure excludes zero. On the d = 3 hot path that
   fails structurally: hull predicates run on lcm-scaled integer
   points whose plane normals reach ~700 bits, so term products
   overflow float range (enclosures hit ±inf), and a large share of
   the calls are *true zeros* (tight facets, coplanar configurations)
   that no enclosure can ever certify. This module supplies the
   escalation ladder that answers those calls without exact rational
   arithmetic:

   - exact native-int evaluation when a static width bound shows every
     intermediate fits one machine word (certifies signs and zeros);
   - exact double-word evaluation (128-bit via base-2^30 limb pairs)
     when the bound fits two words;
   - an extended-exponent mantissa interval — a float enclosure with a
     separate integer exponent — immune to float range overflow
     (certifies nonzero signs up to ~45 bits of cancellation);
   - a modular-residue zero certificate: the value is evaluated modulo
     a fixed vector of 25-bit primes; if enough residues vanish that
     the primes' product exceeds the static magnitude bound, the value
     is exactly zero (certifies precisely the true zeros the interval
     stages cannot).

   Width bounds follow the keelung-style [widthOfInteger] /
   [calculateBounds] discipline: operand bit-widths are O(1) reads,
   and per-predicate bounds are simple sums computed before any stage
   runs, so escalation is decided statically — a stage either cannot
   overflow or is not attempted.

   The module also owns the common-denominator grids themselves: a
   hull construction scales its points onto the integer grid through
   {!scale_points}, and the protocol executor installs a per-round
   grid ({!with_round}) so every construction inside one round shares
   a single lcm scan and gcd-free scaling factors. *)

module B = Bigint
module I = Interval

(* ------------------------------------------------------------------ *)
(* Prime vector for the residue stage: the 64 largest primes below
   2^25. Keeping residues below 2^25 lets the zero-certificate loops
   use LAZY reduction — a residue product is under 2^50, so many
   product terms accumulate between [mod] operations, and the variable
   integer division (the expensive instruction on this path) runs once
   per prime instead of once per term. Each prime exceeds 2^24, so it
   certifies at least [prime_bits] = 24 bits of the magnitude bound;
   64 primes cover bounds up to 1536 bits ([capacity_bits]) — wider
   expressions simply decline the stage and take the exact fallback. *)

let primes = [|
  33554393; 33554383; 33554371; 33554347;
  33554341; 33554317; 33554291; 33554273;
  33554267; 33554249; 33554239; 33554221;
  33554201; 33554167; 33554159; 33554137;
  33554123; 33554093; 33554083; 33554077;
  33554051; 33554021; 33554011; 33554009;
  33553999; 33553991; 33553969; 33553967;
  33553909; 33553901; 33553879; 33553837;
  33553799; 33553787; 33553771; 33553769;
  33553759; 33553747; 33553739; 33553727;
  33553697; 33553693; 33553679; 33553661;
  33553657; 33553651; 33553649; 33553633;
  33553613; 33553607; 33553577; 33553549;
  33553547; 33553537; 33553519; 33553517;
  33553511; 33553489; 33553463; 33553451;
  33553417; 33553379; 33553369; 33553363;
|]

let nprimes = Array.length primes
let prime_bits = 24
let capacity_bits = nprimes * prime_bits

let[@inline] mulmod a b p = a * b mod p

(* Inverse of [a] modulo a prime [p], 0 < a < p: extended Euclid on
   native ints. *)
let modinv a p =
  let rec go old_r r old_s s =
    if r = 0 then old_s else go r (old_r mod r) s (old_s - (old_r / r) * s)
  in
  let inv = go a p 1 0 in
  if inv < 0 then inv + p else inv

(* ------------------------------------------------------------------ *)
(* Per-rational value residues, cached on the Q itself (see Q.rs).
   Slot 0 holds the filled count; slot [i+1] the residue of the value
   modulo [primes.(i)], or [-1] when that prime divides the
   denominator (unusable for this operand). Fills are deterministic,
   so cross-domain races at worst redo work — same benign-race
   argument as the enclosure cache. *)

type ring = { slots : Q.t Weak.t; mutable pos : int; cap : int }

let residue_cache_cap = ref 4096

type rstat = { mutable inserts : int; mutable evictions : int }

let rstats_m = Mutex.create ()
let rstats : rstat list ref = ref []

let ring_make () =
  let cap = Stdlib.max 1 !residue_cache_cap in
  let st = { inserts = 0; evictions = 0 } in
  Mutex.lock rstats_m;
  rstats := st :: !rstats;
  Mutex.unlock rstats_m;
  ({ slots = Weak.create cap; pos = 0; cap }, st)

let ring_key : (ring * rstat) Domain.DLS.key = Domain.DLS.new_key ring_make

let set_residue_cache_capacity n =
  residue_cache_cap := Stdlib.max 1 n;
  Domain.DLS.set ring_key (ring_make ())

let residue_cache_stats () =
  Mutex.lock rstats_m;
  let ss = !rstats in
  Mutex.unlock rstats_m;
  List.fold_left
    (fun (i, e) s -> (i + s.inserts, e + s.evictions))
    (0, 0) ss

(* Track a Q whose residue slot was just populated; evicting the
   oldest entry resets its slot so long campaigns hold a bounded
   number of residue arrays alive. Weak slots drop dead rationals for
   free. *)
let ring_track q =
  let ring, st = Domain.DLS.get ring_key in
  (match Weak.get ring.slots ring.pos with
   | Some old -> Q.set_residues old [||]; st.evictions <- st.evictions + 1
   | None -> ());
  Weak.set ring.slots ring.pos (Some q);
  ring.pos <- (ring.pos + 1) mod ring.cap;
  st.inserts <- st.inserts + 1

(* Ensure the first [k] residues of [q] are filled; returns the cache
   array. [k <= nprimes]. *)
let residues (q : Q.t) k =
  let rs = q.Q.rs in
  let rs =
    if Array.length rs <> 0 then rs
    else begin
      let a = Array.make (nprimes + 1) 0 in
      Q.set_residues q a;
      ring_track q;
      a
    end
  in
  let filled = rs.(0) in
  if filled < k then begin
    let den1 = B.equal q.Q.den B.one in
    for i = filled to k - 1 do
      let p = primes.(i) in
      let rn = B.rem_int q.Q.num p in
      let rn = if rn < 0 then rn + p else rn in
      rs.(i + 1) <-
        (if den1 then rn
         else begin
           let rd = B.rem_int q.Q.den p in
           if rd = 0 then -1 else mulmod rn (modinv rd p) p
         end)
    done;
    rs.(0) <- k
  end;
  rs

(* ------------------------------------------------------------------ *)
(* Width bounds (the widthOfInteger / calculateBounds idiom). All
   widths are O(1) bit-length reads; bounds are conservative sums:
   bits(x*y) <= bits x + bits y and bits(sum of n terms) <= max + ceil
   log2 n. A stage runs only when its bound proves it cannot overflow,
   so escalation — never wrapping — is decided before any arithmetic. *)

let[@inline] width (q : Q.t) = B.num_bits q.Q.num
let[@inline] den_width (q : Q.t) =
  if B.equal q.Q.den B.one then 0 else B.num_bits q.Q.den

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

(* Static stage selection for a grid of coordinate width [w] in
   dimension [d]: hull visibility dots multiply a plane normal (a
   cross product, <= 2w + 2 bits) by a coordinate and sum d + 1 terms.
   Exposed for scale-time reporting and for the boundary tests; the
   per-call gates in the evaluators below recompute the same sums from
   the actual operands, so a non-conforming operand can never borrow a
   grid's budget. *)
type bounds = {
  dot_bound : int;      (* magnitude bound (bits) of a visibility dot *)
  int1 : bool;          (* single-word exact evaluation cannot overflow *)
  dword : bool;         (* double-word exact evaluation cannot overflow *)
  residue_primes : int; (* residues needed to certify a zero *)
}

(* Single-word partial sums must stay below 2^62 (OCaml native ints
   carry 63 bits); the 6-limb double-word accumulator covers 150 bits
   but its factors must fit one word, bounding products at 124 bits.
   A one-bit guard keeps both gates strict. *)
let int1_max_bits = 61
let dword_max_bits = 123

let primes_for bound = (bound + prime_bits) / prime_bits

let bounds_for ~dim:d ~width:w =
  let dot_bound = w + (2 * w + 2) + log2_ceil (d + 1) in
  { dot_bound;
    int1 = dot_bound <= int1_max_bits;
    dword = dot_bound <= dword_max_bits;
    residue_primes = primes_for dot_bound }

(* ------------------------------------------------------------------ *)
(* Exact double-word accumulator: Σ ±x·y over native factors
   |x|, |y| < 2^62, kept in six base-2^30 limbs (180 bits of headroom
   for a 124-bit product bound). Factors split into three 30-bit
   digits; the nine digit products stay below 2^60, and a cell
   receives at most three of them between carry normalizations, so no
   intermediate exceeds 62 bits. *)

let acc_make () = Array.make 6 0

let acc_add_prod acc s x y =
  let sx = if x < 0 then -s else s in
  let x = abs x in
  let s = if y < 0 then -sx else sx in
  let y = abs y in
  let m = (1 lsl 30) - 1 in
  let x0 = x land m and x1 = (x lsr 30) land m and x2 = x lsr 60 in
  let y0 = y land m and y1 = (y lsr 30) land m and y2 = y lsr 60 in
  if s > 0 then begin
    acc.(0) <- acc.(0) + (x0 * y0);
    acc.(1) <- acc.(1) + (x0 * y1) + (x1 * y0);
    acc.(2) <- acc.(2) + (x0 * y2) + (x1 * y1) + (x2 * y0);
    acc.(3) <- acc.(3) + (x1 * y2) + (x2 * y1);
    acc.(4) <- acc.(4) + (x2 * y2)
  end
  else begin
    acc.(0) <- acc.(0) - (x0 * y0);
    acc.(1) <- acc.(1) - (x0 * y1) - (x1 * y0);
    acc.(2) <- acc.(2) - (x0 * y2) - (x1 * y1) - (x2 * y0);
    acc.(3) <- acc.(3) - (x1 * y2) - (x2 * y1);
    acc.(4) <- acc.(4) - (x2 * y2)
  end;
  (* Carry-normalize: limbs 0..4 end in [0, 2^30), limb 5 signed. *)
  let carry = ref 0 in
  for i = 0 to 4 do
    let c = acc.(i) + !carry in
    acc.(i) <- c land m;
    carry := c asr 30
  done;
  acc.(5) <- acc.(5) + !carry

let acc_sign acc =
  if acc.(5) > 0 then 1
  else if acc.(5) < 0 then -1
  else if acc.(0) lor acc.(1) lor acc.(2) lor acc.(3) lor acc.(4) <> 0 then 1
  else 0

(* ------------------------------------------------------------------ *)
(* Extended-exponent intervals: a float enclosure [xlo, xhi] carrying
   a separate integer power-of-two exponent, so products of wide
   integers never saturate to ±inf. Endpoint arithmetic reuses the
   1-ulp outward rounding of {!Interval}; exponent alignment widens by
   one ulp per shift, which is conservative. *)

type xiv = { xlo : float; xhi : float; xe : int }

(* Mantissas are kept small (below ~2^62): every operand past the
   native range is normalized through [to_scaled_enclosure], never
   through its raw float enclosure — a finite-but-huge enclosure
   (say 2^800) would make downstream *products* overflow exactly the
   way the stage-1 intervals do.

   The (mantissa enclosure, exponent) pair is cached on the rational
   itself (Q.sc / Q.sce): hull tight-tests evaluate every point
   against every facet, so each coordinate's enclosure is demanded
   tens of times per construction. The fill is deterministic and the
   exponent is published before the enclosure, mirroring the
   count-then-slots ordering of the residue cache, so a cross-domain
   race at worst redoes the computation. *)
let compute_sc (q : Q.t) =
  let den1 = B.equal q.Q.den B.one in
  let iv, e =
    if den1 && B.is_small q.Q.num then (Q.enclosure q, 0)
    else begin
      let mn, en = B.to_scaled_enclosure q.Q.num in
      if den1 then (mn, en)
      else begin
        let md, ed = B.to_scaled_enclosure q.Q.den in
        (I.div_pos mn md, en - ed)
      end
    end
  in
  Q.set_scaled_enclosure q iv e;
  iv

let[@inline] sc_of (q : Q.t) =
  let s = q.Q.sc in
  if s != I.unset then s else compute_sc q

let xiv_of_q (q : Q.t) =
  let s = sc_of q in
  { xlo = s.I.lo; xhi = s.I.hi; xe = q.Q.sce }

let xmul a b =
  let m = I.mul { I.lo = a.xlo; hi = a.xhi } { I.lo = b.xlo; hi = b.xhi } in
  { xlo = m.I.lo; xhi = m.I.hi; xe = a.xe + b.xe }

(* Align [a] up to exponent [e >= a.xe] by shifting its mantissa
   DOWN: a large shift underflows toward zero, and the outward ulp
   keeps the enclosure sound. (Aligning toward the smaller exponent
   would shift mantissas up, which can overflow to [inf] — and an
   overflowing *lower* bound is unsound.) *)
let xalign a e =
  if a.xe = e then a
  else begin
    let k = a.xe - e in
    { xlo = I.down (Float.ldexp a.xlo k);
      xhi = I.up (Float.ldexp a.xhi k);
      xe = e }
  end

let xadd a b =
  let e = Stdlib.max a.xe b.xe in
  let a = xalign a e and b = xalign b e in
  { xlo = I.down (a.xlo +. b.xlo); xhi = I.up (a.xhi +. b.xhi); xe = e }

let xneg a = { xlo = -.a.xhi; xhi = -.a.xlo; xe = a.xe }

let xsub a b = xadd a (xneg b)

let xsign a =
  if a.xlo > 0.0 then Some 1 else if a.xhi < 0.0 then Some (-1) else None

(* ------------------------------------------------------------------ *)
(* Predicate evaluators: each returns [Some sign] only when a stage
   certifies the result, [None] to defer to the exact fallback. *)

(* Residue zero certificate for a fused expression: [eval rs_of i p]
   must return the expression's value residue modulo [p = primes.(i)],
   given per-operand residue arrays, or [-1] when some operand is
   unusable at that prime. Certifies zero once enough residues vanish
   to cover [bound] bits; bails to the fallback on the first nonzero
   residue (the value is then provably nonzero, but its sign is
   unknown at this stage). *)
let residue_zero ~bound eval =
  if bound > capacity_bits then None
  else begin
    let needed = primes_for bound in
    let rec go i good =
      if good >= needed then Some 0
      else if i >= nprimes then None
      else begin
        match eval i primes.(i) with
        | -1 -> go (i + 1) good    (* prime divides a denominator *)
        | 0 -> go (i + 1) (good + 1)
        | _ -> None                (* provably nonzero, sign unknown *)
      end
    in
    go 0 0
  end

(* Residue zero certificate for dots, specialized: every operand's
   residue array is filled once up front, then the prime loop reads
   raw int slots — the generic per-prime closure pays a function call
   and a fill check per (prime, operand) pair, which dominated the
   true-zero path at n = 7, d = 3 (~36 primes x 9 operands per call).
   An unusable operand (a denominator divisible by one of the 25-bit
   primes — essentially impossible on protocol grids) falls back to
   the generic scan, which can skip individual primes. *)
exception Unusable

let residue_zero_dot ~bound (a : Q.t array) (p : Q.t array) (b : Q.t) =
  if bound > capacity_bits then None
  else begin
    let d = Array.length a in
    let needed = primes_for bound in
    let rsb = residues b needed in
    let rsa = Array.init d (fun j -> residues a.(j) needed) in
    let rsp = Array.init d (fun j -> residues p.(j) needed) in
    match
      let rec go i =
        if i >= needed then Some 0
        else begin
          let pr = primes.(i) in
          let rb = rsb.(i + 1) in
          if rb = -1 then raise_notrace Unusable;
          (* Lazy reduction: residues are below 2^25, so products stay
             under 2^50 and sums of them fit comfortably in a word;
             the division runs once per prime (plus a guard reduction
             every ~2^9 terms, unreachable at protocol dimensions). *)
          let acc = ref (pr - rb) in
          for j = 0 to d - 1 do
            let ra = rsa.(j).(i + 1) and rp = rsp.(j).(i + 1) in
            if ra = -1 || rp = -1 then raise_notrace Unusable;
            let s = !acc + (ra * rp) in
            acc := if s >= 1 lsl 59 then s mod pr else s
          done;
          if !acc mod pr = 0 then go (i + 1) else None
        end
      in
      go 0
    with
    | r -> r
    | exception Unusable ->
      residue_zero ~bound (fun i pr ->
          let rb = (residues b (i + 1)).(i + 1) in
          if rb = -1 then -1
          else begin
            let acc = ref (pr - rb) in
            (try
               for j = 0 to d - 1 do
                 let ra = (residues a.(j) (i + 1)).(i + 1) in
                 let rp = (residues p.(j) (i + 1)).(i + 1) in
                 if ra = -1 || rp = -1 then raise Exit;
                 acc := (!acc + mulmod ra rp pr) mod pr
               done;
               !acc
             with Exit -> -1)
          end)
  end

(* sign(a . p - b). *)
let dot_minus_sign a p b : int option =
  let d = Array.length a in
  (* Per-call width scan: all O(1) field reads. *)
  let all_int = ref true and all_small = ref true in
  let dsum = ref 0 and max_term = ref 0 in
  for i = 0 to d - 1 do
    let ai = a.(i) and pi = p.(i) in
    let dwa = den_width ai and dwp = den_width pi in
    if dwa > 0 || dwp > 0 then all_int := false;
    if not (B.is_small ai.Q.num && B.is_small pi.Q.num) then all_small := false;
    dsum := !dsum + dwa + dwp;
    let t = width ai + dwa + width pi + dwp in
    if t > !max_term then max_term := t
  done;
  let dwb = den_width b in
  if dwb > 0 then all_int := false;
  if not (B.is_small b.Q.num) then all_small := false;
  dsum := !dsum + dwb;
  max_term := Stdlib.max !max_term (width b + dwb);
  (* Denominator products of the *other* operands clear each term's
     denominator; [dsum] over-counts by the term's own denominators,
     which only loosens the bound. *)
  let bound = !max_term + !dsum + log2_ceil (d + 1) in
  if !all_int && !all_small && bound <= int1_max_bits then begin
    (* Single-word exact: certifies sign and zero alike. *)
    let acc = ref (- (B.to_int_exn b.Q.num)) in
    for i = 0 to d - 1 do
      acc := !acc + (B.to_int_exn a.(i).Q.num * B.to_int_exn p.(i).Q.num)
    done;
    Some (Stdlib.compare !acc 0)
  end
  else if !all_int && !all_small && bound <= dword_max_bits then begin
    let acc = acc_make () in
    acc_add_prod acc (-1) (B.to_int_exn b.Q.num) 1;
    for i = 0 to d - 1 do
      acc_add_prod acc 1 (B.to_int_exn a.(i).Q.num) (B.to_int_exn p.(i).Q.num)
    done;
    Some (acc_sign acc)
  end
  else begin
    (* Extended-exponent interval: certifies nonzero signs past float
       range (the interval stage's overflow blind spot). The unrolled
       accumulator lives in local floats — cached mantissa enclosures,
       no interval records — because this loop runs a couple hundred
       thousand times per n = 7 execution. Every rounding step is
       covered by one outward ulp, exactly as in [xmul]/[xadd]. *)
    let sb = sc_of b in
    let alo = ref (-.sb.I.hi) and ahi = ref (-.sb.I.lo) in
    let ae = ref b.Q.sce in
    for i = 0 to d - 1 do
      let qa = a.(i) and qp = p.(i) in
      let sa = sc_of qa in
      let ea = qa.Q.sce in
      let sp = sc_of qp in
      let ep = qp.Q.sce in
      let p1 = sa.I.lo *. sp.I.lo and p2 = sa.I.lo *. sp.I.hi in
      let p3 = sa.I.hi *. sp.I.lo and p4 = sa.I.hi *. sp.I.hi in
      (* Mantissa products are finite (factors < ~2^62), so plain
         comparisons pick the enclosing endpoints. *)
      let mn = if p1 < p2 then p1 else p2 in
      let mn = if p3 < mn then p3 else mn in
      let mn = if p4 < mn then p4 else mn in
      let mx = if p1 > p2 then p1 else p2 in
      let mx = if p3 > mx then p3 else mx in
      let mx = if p4 > mx then p4 else mx in
      let plo = I.down mn and phi = I.up mx in
      let pe = ea + ep in
      (* Align to the larger exponent, shifting the other mantissa
         DOWN (underflow is sound after the outward ulp; an upward
         shift could overflow). *)
      if pe >= !ae then begin
        let k = !ae - pe in
        let slo = I.down (Float.ldexp !alo k) in
        let shi = I.up (Float.ldexp !ahi k) in
        alo := I.down (slo +. plo);
        ahi := I.up (shi +. phi);
        ae := pe
      end
      else begin
        let k = pe - !ae in
        let slo = I.down (Float.ldexp plo k) in
        let shi = I.up (Float.ldexp phi k) in
        alo := I.down (!alo +. slo);
        ahi := I.up (!ahi +. shi)
      end
    done;
    if !alo > 0.0 then Some 1
    else if !ahi < 0.0 then Some (-1)
    else residue_zero_dot ~bound a p b
  end

(* sign((a - o) x (b - o)) — the 2-d orientation test. *)
let cross2_sign o a b : int option =
  let o0 = o.(0) and o1 = o.(1) in
  let a0 = a.(0) and a1 = a.(1) in
  let b0 = b.(0) and b1 = b.(1) in
  let dw =
    den_width o0 + den_width o1 + den_width a0 + den_width a1 + den_width b0
    + den_width b1
  in
  let wmax =
    List.fold_left Stdlib.max 0
      [ width o0; width o1; width a0; width a1; width b0; width b1 ]
  in
  (* Differences add a bit; two difference products and their sum add
     three more. *)
  let bound = (2 * (wmax + 1)) + dw + 2 in
  let all_int = dw = 0 in
  let all_small =
    B.is_small o0.Q.num && B.is_small o1.Q.num && B.is_small a0.Q.num
    && B.is_small a1.Q.num && B.is_small b0.Q.num && B.is_small b1.Q.num
  in
  if all_int && all_small && bound <= int1_max_bits then begin
    let d00 = B.to_int_exn a0.Q.num - B.to_int_exn o0.Q.num in
    let d01 = B.to_int_exn a1.Q.num - B.to_int_exn o1.Q.num in
    let d10 = B.to_int_exn b0.Q.num - B.to_int_exn o0.Q.num in
    let d11 = B.to_int_exn b1.Q.num - B.to_int_exn o1.Q.num in
    Some (Stdlib.compare ((d00 * d11) - (d01 * d10)) 0)
  end
  else if all_int && all_small && bound <= dword_max_bits then begin
    let d00 = B.to_int_exn a0.Q.num - B.to_int_exn o0.Q.num in
    let d01 = B.to_int_exn a1.Q.num - B.to_int_exn o1.Q.num in
    let d10 = B.to_int_exn b0.Q.num - B.to_int_exn o0.Q.num in
    let d11 = B.to_int_exn b1.Q.num - B.to_int_exn o1.Q.num in
    let acc = acc_make () in
    acc_add_prod acc 1 d00 d11;
    acc_add_prod acc (-1) d01 d10;
    Some (acc_sign acc)
  end
  else begin
    let xo0 = xiv_of_q o0 and xo1 = xiv_of_q o1 in
    match
      xsign
        (xsub
           (xmul (xsub (xiv_of_q a0) xo0) (xsub (xiv_of_q b1) xo1))
           (xmul (xsub (xiv_of_q a1) xo1) (xsub (xiv_of_q b0) xo0)))
    with
    | Some s -> Some s
    | None ->
      residue_zero ~bound (fun i pr ->
          let r q = (residues q (i + 1)).(i + 1) in
          let ro0 = r o0 and ro1 = r o1 in
          let ra0 = r a0 and ra1 = r a1 in
          let rb0 = r b0 and rb1 = r b1 in
          if ro0 = -1 || ro1 = -1 || ra0 = -1 || ra1 = -1 || rb0 = -1
             || rb1 = -1
          then -1
          else begin
            let d00 = (ra0 - ro0 + pr) mod pr in
            let d01 = (ra1 - ro1 + pr) mod pr in
            let d10 = (rb0 - ro0 + pr) mod pr in
            let d11 = (rb1 - ro1 + pr) mod pr in
            (mulmod d00 d11 pr - mulmod d01 d10 pr + pr) mod pr
          end)
  end

(* ------------------------------------------------------------------ *)
(* Common-denominator grids: the lcm scaling that hull constructions
   apply to their points, shared per protocol round. *)

type t = {
  den : B.t;                          (* common multiple of all point dens *)
  mutable factors : (B.t * B.t) list; (* den |-> grid den / den *)
  mutable gwidth : int;               (* widest scaled coordinate seen *)
}

(* den |-> cofactor cache; point sets carry a handful of distinct
   denominators, so an assoc list beats any hashing. Raises [Exit]
   when [d] does not divide the grid denominator (the caller falls
   back to a construction-local grid). *)
let factor_of g d =
  if B.equal d B.one then g.den
  else begin
    let rec find = function
      | [] ->
        let q, r = B.divmod g.den d in
        if not (B.is_zero r) then raise_notrace Exit;
        g.factors <- (d, q) :: g.factors;
        q
      | (d', f) :: rest -> if B.equal d d' then f else find rest
    in
    find g.factors
  end

(* lcm of the coordinate denominators, deduplicating first: rounds
   funnel every vertex through the same averaging arithmetic, so a
   900-point set typically carries under a dozen distinct
   denominators and the gcd chain runs on those alone. *)
let distinct_dens pts acc0 =
  List.fold_left
    (fun acc (p : Q.t array) ->
       Array.fold_left
         (fun acc (q : Q.t) ->
            let d = q.Q.den in
            if B.equal d B.one then acc
            else if List.exists (B.equal d) acc then acc
            else d :: acc)
         acc p)
    acc0 pts

let lcm_of dens =
  List.fold_left
    (fun acc d -> B.mul (B.div acc (B.gcd acc d)) d)
    B.one dens

let make_of_dens dens = { den = lcm_of dens; factors = []; gwidth = 0 }

let make pts =
  let g = make_of_dens (distinct_dens pts []) in
  g

(* Grid for points about to be scaled by a 1/mult-weighted combination
   (the round average): mult * lcm is a common multiple of every
   resulting denominator, since (Σ v_i)/mult has a denominator
   dividing mult times the lcm of the v_i's. *)
let make_scaled ~mult pts =
  let g = make pts in
  if mult <= 1 then g else { g with den = B.mul_int g.den mult }

(* ------------------------------------------------------------------ *)
(* Per-round lifecycle. The executor installs a *pending* grid around
   each round's geometry: the denominator scan is deferred until the
   first construction actually scales points (rounds fully served by
   the memo tables never pay for it), then every later construction in
   the round reuses the same grid. Domain-local, like the kernel-mode
   override, so concurrent fuzz trials don't share grids. *)

type slot = Idle | Pending of (unit -> t) | Ready of t

let slot_key : slot ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Idle)

type gstat = {
  mutable scans : int;       (* construction-local lcm scans *)
  mutable round_hits : int;  (* constructions served by the round grid *)
}

let gstats_m = Mutex.create ()
let gstats : gstat list ref = ref []

let gstat_key : gstat Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { scans = 0; round_hits = 0 } in
      Mutex.lock gstats_m;
      gstats := s :: !gstats;
      Mutex.unlock gstats_m;
      s)

let grid_stats () =
  Mutex.lock gstats_m;
  let ss = !gstats in
  Mutex.unlock gstats_m;
  List.fold_left
    (fun (sc, rh) s -> (sc + s.scans, rh + s.round_hits))
    (0, 0) ss

let with_round build f =
  let slot = Domain.DLS.get slot_key in
  let saved = !slot in
  slot := Pending build;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* Install only when no round grid is active: construction-level entry
   points (Polytope.linear_combination, intersect) use this so they
   share a grid when called standalone yet never shadow the executor's
   per-round grid. *)
let ensure_round build f =
  let slot = Domain.DLS.get slot_key in
  match !slot with Idle -> with_round build f | _ -> f ()

let current () =
  let slot = Domain.DLS.get slot_key in
  match !slot with
  | Idle -> None
  | Ready g -> Some g
  | Pending build ->
    let g = build () in
    slot := Ready g;
    Some g

(* ------------------------------------------------------------------ *)
(* Point scaling. [scale_points pts] returns the points scaled onto an
   integer grid together with the grid denominator [l] (so facet
   offsets map back as b/l): the ambient round grid when every
   denominator divides it, otherwise a construction-local grid. Either
   way the per-coordinate work is one multiplication — the cofactor
   cache replaces the gcd-pair reduction [Q.mul] would run per
   coordinate. *)

let scale_with g pts =
  let w = ref g.gwidth in
  let scaled =
    List.map
      (fun (p : Q.t array) ->
         Array.map
           (fun (q : Q.t) ->
              if B.equal q.Q.den B.one && B.equal g.den B.one then q
              else begin
                let n = B.mul q.Q.num (factor_of g q.Q.den) in
                w := Stdlib.max !w (B.num_bits n);
                Q.of_bigint n
              end)
           p)
      pts
  in
  g.gwidth <- !w;
  scaled

let scale_points pts =
  let st = Domain.DLS.get gstat_key in
  match current () with
  | Some g ->
    (match scale_with g pts with
     | scaled ->
       st.round_hits <- st.round_hits + 1;
       (scaled, g.den)
     | exception Exit ->
       (* A denominator outside the round grid: scan locally. *)
       st.scans <- st.scans + 1;
       let g' = make pts in
       (scale_with g' pts, g'.den))
  | None ->
    st.scans <- st.scans + 1;
    let g = make pts in
    (scale_with g pts, g.den)

let width_of g = g.gwidth
let den_of g = g.den

(* ------------------------------------------------------------------ *)
(* Telemetry: residue-cache size/evictions (the named-cache treatment
   Memo tables get) and grid reuse counters. *)

let () =
  Obs.Metrics.register_collector (fun () ->
      let inserts, evictions = residue_cache_stats () in
      let e_inserts, e_evictions = Q.enclosure_cache_stats () in
      let scans, round_hits = grid_stats () in
      [ { Obs.Metrics.metric = "chc_cache_inserts_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_inserts };
        { Obs.Metrics.metric = "chc_cache_evictions_total";
          labels = [ ("cache", "enclosure") ];
          value = Obs.Metrics.Counter e_evictions };
        { Obs.Metrics.metric = "chc_cache_inserts_total";
          labels = [ ("cache", "residue") ];
          value = Obs.Metrics.Counter inserts };
        { Obs.Metrics.metric = "chc_cache_evictions_total";
          labels = [ ("cache", "residue") ];
          value = Obs.Metrics.Counter evictions };
        { Obs.Metrics.metric = "chc_grid_local_scans_total";
          labels = [];
          value = Obs.Metrics.Counter scans };
        { Obs.Metrics.metric = "chc_grid_round_hits_total";
          labels = [];
          value = Obs.Metrics.Counter round_hits } ])
