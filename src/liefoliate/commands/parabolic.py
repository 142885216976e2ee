"""``parabolic``."""

from . import emit_json, parse_phi


OPTIONS = {
    "--space": {"required": True},
    "--phi": {"default": "", "help": "comma-separated simple root indices, e.g. 1,3"},
    "--format": {"default": "table", "choices": ("table", "json")},
}


def run(args) -> int:
    from ..catalog import catalog_lookup
    from ..parabolic import parabolic_data, phi_subset

    space = catalog_lookup(args.space)
    phi = phi_subset(space, parse_phi(args.phi))
    data = parabolic_data(space, phi)
    if args.format == "json":
        emit_json(data.to_dict())
    else:
        print(f"space {space.name} ({space.display}), Phi = {list(phi.indices)}")
        print(f"|Sigma_Phi| = {len(data.sigma_phi)}, |Sigma_Phi+| = {len(data.sigma_phi_pos)}")
        for label, value in (
            ("dim a_Phi", data.dim_a_phi),
            ("dim n_Phi", data.dim_n_phi),
            ("dim g0", data.dim_g0),
            ("dim l_Phi", data.dim_l_phi),
            ("dim m_Phi", data.dim_m_phi),
            ("dim q_Phi", data.dim_q_phi),
            ("dim p_Phi", data.dim_p_phi),
            ("dim p_Phi^s", data.dim_p_phi_s),
            ("dim k_Phi", data.dim_k_phi),
            ("dim g_Phi", data.dim_g_phi),
            ("dim z_Phi", data.dim_z_phi),
        ):
            print(f"  {label:<12} = {'unavailable' if value is None else value}")
    return 0
