(* Resource governance: deadline / node cap / heap watermark /
   cancellation, polled cooperatively by the kernels.  See budget.mli
   for the cost and determinism contract. *)

type reason = Timeout | Node_limit | Memory_limit | Cancelled

exception Exhausted of reason

type t = {
  deadline : float;
  max_nodes : int;
  max_memory_words : int;
  cancel : bool Atomic.t;
  active : bool;
  interval : int;
  tick : int Atomic.t;
}

let unlimited =
  {
    deadline = infinity;
    max_nodes = max_int;
    max_memory_words = max_int;
    cancel = Atomic.make false;
    active = false;
    interval = max_int;
    tick = Atomic.make max_int;
  }

(* The most recently created active budget, for postmortems: when a
   process dies with no budget in hand (uncaught exception, SIGUSR1),
   the dump can still report the limits the run was operating under. *)
let current_ref : t option Atomic.t = Atomic.make None
let current () = Atomic.get current_ref

let create ?timeout ?max_nodes ?max_memory_words ?cancel
    ?(poll_interval = 256) () =
  if poll_interval < 1 then
    invalid_arg "Budget.create: poll_interval must be positive";
  (match timeout with
  | Some s when Float.is_nan s -> invalid_arg "Budget.create: NaN timeout"
  | Some s when s < 0. -> invalid_arg "Budget.create: negative timeout"
  | _ -> ());
  (match max_nodes with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative max_nodes"
  | _ -> ());
  (match max_memory_words with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative max_memory_words"
  | _ -> ());
  let deadline =
    match timeout with
    | None -> infinity
    | Some s -> Unix.gettimeofday () +. s
  in
  let t =
    {
      deadline;
      max_nodes = Option.value max_nodes ~default:max_int;
      max_memory_words = Option.value max_memory_words ~default:max_int;
      cancel = (match cancel with Some c -> c | None -> Atomic.make false);
      active = true;
      interval = poll_interval;
      tick = Atomic.make poll_interval;
    }
  in
  Atomic.set current_ref (Some t);
  t

let is_unlimited t = not t.active

let with_max_nodes t max_nodes =
  if not t.active then t
  else { t with max_nodes; tick = Atomic.make t.interval }

let split_nodes t k =
  if (not t.active) || t.max_nodes = max_int then t
  else with_max_nodes t (max 1 (t.max_nodes / max 1 k))

let cancel_now t = Atomic.set t.cancel true
let cancelled t = Atomic.get t.cancel

let reason_to_string = function
  | Timeout -> "timeout"
  | Node_limit -> "node_limit"
  | Memory_limit -> "memory_limit"
  | Cancelled -> "cancelled"

let exhaust reason =
  let r = reason_to_string reason in
  (* The trip always lands in the flight recorder — postmortems must
     show it even on uninstrumented runs.  With aggregation enabled the
     [Obs.event] below records the ring entry itself, so only record
     directly when it will not. *)
  if !Flight_recorder.enabled_ref && not !Obs.enabled_ref then
    Flight_recorder.record Flight_recorder.Budget_trip "budget.trip"
      ~args:[ ("reason", r) ];
  if !Obs.enabled_ref then begin
    Obs.incr ("budget.trip." ^ r);
    Obs.event "budget.trip" [ ("reason", Obs.Json.String r) ]
  end;
  raise (Exhausted reason)

let check t =
  if t.active then begin
    (* One ring entry per full (unamortized) check: cheap at the
       amortized interval, and the recorder tail then shows how recently
       the budget was consulted before a trip. *)
    if !Flight_recorder.enabled_ref then
      Flight_recorder.record Flight_recorder.Budget_poll "budget.poll";
    if Atomic.get t.cancel then exhaust Cancelled;
    if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
      exhaust Timeout;
    if t.max_memory_words < max_int then begin
      let stat = Gc.quick_stat () in
      if stat.Gc.heap_words > t.max_memory_words then exhaust Memory_limit
    end
  end

let check_nodes t n = if t.active && n > t.max_nodes then exhaust Node_limit

let poll t =
  if t.active then begin
    let left = Atomic.fetch_and_add t.tick (-1) in
    if left <= 1 then begin
      Atomic.set t.tick t.interval;
      check t
    end
  end
