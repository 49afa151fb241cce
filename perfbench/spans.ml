(* In-memory span recorder.  A span is a named interval with the span
   that caused it; spans are kept in memory (safe to record from several
   domains) and written out once, when the benchmark ends. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

(* Parent id of root spans. *)
let root = 0

type t = { lock : Mutex.t; mutable spans : span list; next : int Atomic.t }

let create () = { lock = Mutex.create (); spans = []; next = Atomic.make 1 }

let fresh t = Atomic.fetch_and_add t.next 1

let add t ?id ~parent name start stop =
  let id = match id with Some i -> i | None -> fresh t in
  Mutex.protect t.lock (fun () ->
      t.spans <- { id; parent; name; start; stop } :: t.spans);
  id

(* Run [f id] inside a span named [name]; [id] is the span's own id, for
   its children. *)
let with_span t ~parent name f =
  let id = fresh t in
  let start = Stat.now () in
  Fun.protect
    ~finally:(fun () -> ignore (add t ~id ~parent name start (Stat.now ())))
    (fun () -> f id)

let all t = Mutex.protect t.lock (fun () -> List.rev t.spans)

let children spans =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add tbl s.parent s) spans;
  fun id -> Hashtbl.find_all tbl id

(* Length of the union of intervals. *)
let covered ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None ivs

(* Self time of every span: its duration minus the part of it that its
   children cover, summed per span name. *)
let self_times spans =
  let kids = children spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let inner =
        covered
          (List.map
             (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
             (kids s.id))
      in
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0 in
      Hashtbl.replace tbl s.name (prev +. (s.stop -. s.start -. inner)))
    spans;
  tbl

let self_time tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* Problems with the tree: spans that end before they start, name an
   unknown parent, or stick out of their parent's interval by more than
   clock rounding. *)
let nesting_errors spans =
  let slack = 1e-6 in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter_map
    (fun s ->
      if s.stop < s.start then Some (Printf.sprintf "%s#%d ends before it starts" s.name s.id)
      else if s.parent = root then None
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> Some (Printf.sprintf "%s#%d has no parent #%d" s.name s.id s.parent)
        | Some p ->
          if s.start < p.start -. slack || s.stop > p.stop +. slack then
            Some
              (Printf.sprintf "%s#%d [%f, %f] outside %s#%d [%f, %f]" s.name
                 s.id s.start s.stop p.name p.id p.start p.stop)
          else None)
    spans

let to_json spans =
  let module J = Dpc_prof.Json in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [ ("id", J.Int s.id); ("parent", J.Int s.parent);
             ("name", J.String s.name);
             ("start_us", J.Float (1e6 *. (s.start -. t0)));
             ("dur_us", J.Float (1e6 *. (s.stop -. s.start))) ])
       spans)
