type t = { r_emit : (string -> unit) option }

let null = { r_emit = None }

let make emit = { r_emit = Some emit }

let stderr_reporter =
  make (fun s ->
      output_string stderr s;
      flush stderr)

let text t s = match t.r_emit with Some emit -> emit s | None -> ()

let line t s =
  match t.r_emit with
  | Some emit -> emit (s ^ "\n")
  | None -> ()

let linef t fmt =
  Printf.ksprintf
    (fun s ->
      match t.r_emit with Some emit -> emit (s ^ "\n") | None -> ())
    fmt
