module Link = Snapdiff_net.Link
module Change_log = Snapdiff_changelog.Change_log

type policy =
  | Buffer
  | Reject

type t = {
  link : Link.t;
  policy : policy;
  queue : Refresh_msg.t Queue.t;
  mutable sent : int;
  mutable rejected : int;
}

let push t msg =
  if Queue.is_empty t.queue && Link.try_send t.link (Refresh_msg.encode msg) then
    t.sent <- t.sent + 1
  else begin
    match t.policy with
    | Buffer -> Queue.add msg t.queue
    | Reject -> t.rejected <- t.rejected + 1
  end

let flush t =
  let made_progress = ref true in
  while (not (Queue.is_empty t.queue)) && !made_progress do
    let msg = Queue.peek t.queue in
    if Link.try_send t.link (Refresh_msg.encode msg) then begin
      ignore (Queue.pop t.queue : Refresh_msg.t);
      t.sent <- t.sent + 1
    end
    else made_progress := false
  done

let attach ~base ~link ~restrict ~project ?(policy = Buffer) () =
  let t = { link; policy; queue = Queue.create (); sent = 0; rejected = 0 } in
  ignore
    (Base_table.subscribe base (fun change ->
         let addr, before, after =
           match change with
           | Change_log.Insert (addr, v) -> (addr, None, Some v)
           | Change_log.Delete (addr, old) -> (addr, Some old, None)
           | Change_log.Update (addr, old, v) -> (addr, Some old, Some v)
         in
         match Ideal.decide ~restrict before after with
         | `Upsert v -> push t
           (Refresh_msg.Upsert { addr; row = Snapdiff_storage.Row.of_tuple (project v) })
         | `Remove -> push t (Refresh_msg.Remove { addr })
         | `Nothing -> ())
      : Base_table.subscription);
  t

let sent t = t.sent
let pending t = Queue.length t.queue
let rejected t = t.rejected
