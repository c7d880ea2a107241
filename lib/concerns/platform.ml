let platforms = [ "corba"; "j2ee"; "dotnet"; "webservices" ]

let stereotype_for = function
  | "corba" -> "corba-servant"
  | "j2ee" -> "ejb"
  | "dotnet" -> "assembly"
  | "webservices" -> "service"
  | p -> p ^ "-component"

let concern =
  Concern.make ~key:"platform" ~display:"Platform projection"
    ~description:"Projection of a PIM onto a selected execution platform." ()

let formals =
  [
    Transform.Params.decl "platform"
      (Transform.Params.P_enum platforms)
      ~doc:"target execution platform";
  ]

let preconditions =
  [
    Ocl.Constraint_.make ~name:"model-is-pim"
      "Package.allInstances()->exists(p | p.tag('level') = 'PIM')";
  ]

let postconditions =
  [
    Ocl.Constraint_.make ~name:"model-is-psm"
      "Package.allInstances()->exists(p | p.tag('level') = 'PSM' and \
       p.tag('platform') = $platform$)";
  ]

let rewrite params m =
  let platform = Transform.Params.get_string params "platform" in
  let m = Level.mark (Level.Psm platform) m in
  let component_stereotype = stereotype_for platform in
  List.fold_left
    (fun m (cls : Mof.Element.t) ->
      if Mof.Element.has_stereotype "infrastructure" cls then m
      else Mof.Builder.add_stereotype m cls.Mof.Element.id component_stereotype)
    m (Mof.Query.classes m)

let transformation =
  Transform.Gmt.make ~name:"T.platform" ~concern:concern.Concern.key
    ~description:concern.Concern.description ~formals ~preconditions
    ~postconditions rewrite

let generic_aspect =
  Aspects.Generic.make ~name:"A.platform" ~concern:concern.Concern.key
    ~formals (fun _set ->
      Aspects.Aspect.make ~name:"PlatformAspect"
        ~concern:concern.Concern.key ())
