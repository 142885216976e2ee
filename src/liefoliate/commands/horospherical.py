"""``horospherical``."""

from . import emit_json, parse_phi


OPTIONS = {
    "--space": {"required": True},
    "--phi": {"default": ""},
    "--format": {"default": "table", "choices": ("table", "json")},
}


def run(args) -> int:
    from ..catalog import catalog_lookup
    from ..parabolic import horospherical, phi_subset

    space = catalog_lookup(args.space)
    phi = phi_subset(space, parse_phi(args.phi))
    data = horospherical(space, phi)
    if args.format == "json":
        emit_json(data.to_dict())
    else:
        print(f"space {space.name} ({space.display}), Phi = {list(phi.indices)}")
        print(f"  dim F_Phi^s   = {data.dim_Fs}")
        for f in data.factors:
            print(f"    {f.name}: component {list(f.component_indices)}, dim {f.dim}")
        print(f"  dim Euclidean = {data.dim_euclidean}")
        print(f"  dim N_Phi     = {data.dim_N}")
        print(f"  total         = {space.dimension} = dim M")
    return 0
